package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root: the contract the
// metric tables and workloads of this package must match.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestMain lets the test binary serve as the speedometer child the
// benchmark starts (speed.go), as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(speedEnv) != "" {
		os.Exit(speedometerMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the tables the
// program reports from, so the two cannot drift apart.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(label string, file, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", label, len(file), len(code))
		}
		for i, m := range file {
			if m != code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", label, i, m, code[i])
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s: malformed name %q or unit %q", label, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s better %q", label, m.Name, m.Better)
			}
			if bounded && !(m.Bound > 0 && m.Bound <= 0.25) {
				t.Errorf("%s: %s bound %v outside (0, 0.25]", label, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
}

// TestSmoke runs all four workloads, traced, on short windows at a tenth of
// their rates: every correctness check must pass and the metric names each
// run reports must be exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up four fleets")
	}
	bf := readBenchmarkFile(t)
	opts := options{seed: 1, seconds: 1, trace: true, setupReps: 1, identityKeys: 5, evalSeeds: 1, rateScale: 0.1}
	var out bytes.Buffer
	reports, err := runBenchmark(opts, workloads, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if testing.Verbose() {
		t.Log(out.String())
	}
	if len(reports) != len(workloads) {
		t.Fatalf("%d reports for %d workloads", len(reports), len(workloads))
	}
	for _, r := range reports {
		if !r.result.Correct {
			t.Errorf("%s: correctness gate failed:\n%s", r.workload, out.String())
		}
		if r.result.Attempted < 1 {
			t.Errorf("%s: nothing attempted", r.workload)
		}
		if got, want := keys(r.e2e), defNames(bf.EndToEnd); !slices.Equal(got, want) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json %v", r.workload, got, want)
		}
		if got, want := keys(r.result.Metrics), defNames(bf.PerLayer); !slices.Equal(got, want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json %v", r.workload, got, want)
		}
		if len(r.tr.spans) == 0 {
			t.Errorf("%s: traced window recorded no spans", r.workload)
		}
	}
}

// TestQuartilesMatchPython checks compare's quartiles against values
// statistics.quantiles(data, n=4) and statistics.median return.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
	} {
		if got := quartiles(c.data); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	runs := func(vals ...float64) []seeded {
		out := make([]seeded, len(vals))
		for i, v := range vals {
			out[i] = seeded{uint64(i + 1), v}
		}
		return out
	}
	base := runs(10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.02, 9.98)
	for _, c := range []struct {
		b    []seeded
		want string
	}{
		{runs(10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.02, 9.98), "within bound"},
		{runs(12, 12.1, 11.9, 12.05, 11.95, 12, 12.1, 11.9, 12.02, 11.98), "worse"},
		{runs(8, 8.1, 7.9, 8.05, 7.95, 8, 8.1, 7.9, 8.02, 7.98), "better"},
		{runs(5, 15, 7, 13, 9, 11, 6, 14, 8, 12), "unresolved"},
	} {
		if got := compareMetric(m, base, c.b).verdict; got != c.want {
			t.Errorf("verdict %q, want %q", got, c.want)
		}
	}
}

func keys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}
