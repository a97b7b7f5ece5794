package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain compares two sets of untraced runs (files written with
// -results, typically the parent commit and a change) metric by metric and
// workload by workload:
//
//	perf compare parent.jsonl change.jsonl
//
// For each end-to-end metric it prints both sides' median and quartiles, the
// share of seed-matched pairs the second side wins, and a verdict:
//
//   - unresolved: either side's quartile spread, as a share of its median,
//     is wider than the metric's bound, and not every run of the change
//     beats every run of the parent;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - better: the change wins at least nine tenths of the pairs and the
//     medians differ by more than the parent's quartile spread;
//   - within bound: anything else.
//
// It exits 1 when any verdict is worse or unresolved.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perf compare A.jsonl B.jsonl")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) | B wins | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|\n")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			av, bv := a.values(w.name, m.Name), b.values(w.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := compareMetric(m, av, bv)
			if c.verdict == "worse" || c.verdict == "unresolved" {
				code = 1
			}
			fmt.Fprintf(stdout, "| %s | %s (%s) | %s | %s | %d/%d | %s |\n",
				w.name, m.Name, m.Unit, c.a, c.b, c.wins, c.pairs, c.verdict)
		}
	}
	return code
}

// seeded is one run's value of one metric.
type seeded struct {
	seed  uint64
	value float64
}

// recordSet indexes untraced, correct records by workload and metric.
type recordSet map[string]map[string][]seeded

func (s recordSet) values(workload, metric string) []seeded { return s[workload][metric] }

func readRecords(path string) (recordSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := recordSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace || !r.Correct {
			continue
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]seeded{}
		}
		for name, v := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], seeded{r.Seed, v.Value})
		}
	}
	return set, sc.Err()
}

type comparison struct {
	a, b        string // "median [q1, q3] (n)"
	wins, pairs int
	verdict     string
}

// compareMetric applies the verdict rules of compareMain to one metric.
func compareMetric(m metricDef, av, bv []seeded) comparison {
	aq, bq := quartiles(valuesOf(av)), quartiles(valuesOf(bv))
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	c := comparison{
		a: fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", aq[1], aq[0], aq[2], len(av)),
		b: fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", bq[1], bq[0], bq[2], len(bv)),
	}
	for _, p := range pairs(av, bv) {
		c.pairs++
		if better(p[1], p[0]) {
			c.wins++
		}
	}
	allBetter := true
	for _, x := range av {
		for _, y := range bv {
			if !better(y.value, x.value) {
				allBetter = false
			}
		}
	}
	spread := func(q [3]float64) float64 { return ratio(q[2]-q[0], math.Abs(q[1])) }
	worseBy := ratio(bq[1]-aq[1], math.Abs(aq[1])) // share by which B's median is higher
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case (spread(aq) > m.Bound || spread(bq) > m.Bound) && !allBetter:
		c.verdict = "unresolved"
	case worseBy > m.Bound:
		c.verdict = "worse"
	case 10*c.wins >= 9*c.pairs && c.pairs > 0 && better(bq[1], aq[1]) && math.Abs(bq[1]-aq[1]) > aq[2]-aq[0]:
		c.verdict = "better"
	default:
		c.verdict = "within bound"
	}
	return c
}

// pairs matches runs of the two sides by seed; without common seeds it
// pairs them in order.
func pairs(av, bv []seeded) [][2]float64 {
	bySeed := map[uint64]float64{}
	for _, y := range bv {
		bySeed[y.seed] = y.value
	}
	var out [][2]float64
	for _, x := range av {
		if y, ok := bySeed[x.seed]; ok {
			out = append(out, [2]float64{x.value, y})
		}
	}
	if len(out) > 0 {
		return out
	}
	for i := 0; i < len(av) && i < len(bv); i++ {
		out = append(out, [2]float64{av[i].value, bv[i].value})
	}
	return out
}

func valuesOf(xs []seeded) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.value
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of data
// exactly as Python's statistics.quantiles(data, n=4) (the default
// exclusive method) and statistics.median compute them.
func quartiles(data []float64) [3]float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return [3]float64{}
	}
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return [3]float64{q(1), median(d), q(3)}
}
