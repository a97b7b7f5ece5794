// Command perf is the serving benchmark: it trains the knowledge `vesta
// profile` trains, brings up the fleet `vesta serve` and `vesta route` build
// (a durable replication leader, a long-polling follower and a router over
// both) inside one process, replays open-loop workloads against it, checks
// every answer it can, and prints each metric by name with its unit.
//
//	bash perf/run.sh --workload hot --seed 1 --seconds 20 --trace 0
//	go run . -seed 1                     # from perf/: all four workloads
//	go run . -seed 1 -trace 1 -spans out.jsonl
//	go run . compare A.jsonl B.jsonl     # results written with -results
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end ones of metrics.go; with -trace 1 they are the per-layer ones,
// from a second, traced window. The process exits 0 only when every
// correctness check passed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"time"

	"vesta/internal/core"
	"vesta/internal/loadgen"
)

func main() {
	if os.Getenv(speedEnv) != "" {
		os.Exit(speedometerMain(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the benchmark's inputs. The command line sets seed, seconds
// and trace and fixes the rest (defaultOptions); the smoke test shrinks them
// so a run fits in seconds under the race detector.
type options struct {
	seed         uint64
	seconds      float64
	trace        bool
	setupReps    int     // set-ups timed for setup_s (median reported)
	identityKeys int     // response keys re-derived by the reference server
	evalSeeds    uint64  // request seeds per target app in the selection-quality probe
	rateScale    float64 // multiplies every workload's arrival rate
}

func defaultOptions(seed uint64, seconds float64, trace bool) options {
	return options{seed: seed, seconds: seconds, trace: trace, setupReps: 3, identityKeys: 100, evalSeeds: 4, rateScale: 1}
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hot, cold, burst or write (empty: all four)")
	seed := fs.Uint64("seed", 1, "workload seed; the arrival schedules are a pure function of it")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: report end-to-end metrics; 1: add a traced window and report per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write every recorded span to this JSONL file")
	results := fs.String("results", "", "append one JSON record per workload to this file (input of 'compare')")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perf: -trace %d (want 0 or 1)\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perf: -seconds %v (want > 0)\n", *seconds)
		return 2
	}
	defs := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "perf: unknown workload %q\n", *name)
			return 2
		}
		defs = []workloadDef{w}
	}
	opts := defaultOptions(*seed, *seconds, *trace == 1)
	reports, err := runBenchmark(opts, defs, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 2
	}
	code := 0
	for _, r := range reports {
		if !r.result.Correct {
			code = 1
		}
	}
	if *results != "" {
		if err := appendRecords(*results, opts, reports); err != nil {
			fmt.Fprintf(stderr, "perf: %v\n", err)
			return 2
		}
	}
	if *spans != "" && opts.trace {
		var traced []tracedWindow
		for _, r := range reports {
			traced = append(traced, tracedWindow{r.workload, r.tr})
		}
		if err := writeSpans(*spans, traced); err != nil {
			fmt.Fprintf(stderr, "perf: %v\n", err)
			return 2
		}
	}
	return code
}

// bench holds what every workload of a run shares: the trained snapshot,
// the normalized set-up time, the ground-truth rows built so far and the
// speedometer every end-to-end time is normalized by (speed.go).
type bench struct {
	opts   options
	out    io.Writer
	base   *core.Snapshot
	setupS float64
	truth  map[string]truthRow
	speed  *speedometer
}

// report is one workload's outcome.
type report struct {
	workload string
	result   result                 // the line printed: per-layer metrics with trace 1
	e2e      map[string]metricValue // the untraced window's end-to-end metrics
	tr       *tracer                // the traced window's spans (trace 1)
}

// runBenchmark checks the harness's own preconditions, times the set-up,
// and runs each workload on a fresh fleet, printing its report and result
// line as it completes.
func runBenchmark(opts options, defs []workloadDef, out io.Writer) ([]report, error) {
	if err := checkHygiene(); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# perf: nproc %d, GOMAXPROCS %d, %s, seed %d, %gs windows, trace %v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), opts.seed, opts.seconds, opts.trace)
	speed, err := startSpeedometer()
	if err != nil {
		return nil, err
	}
	defer speed.stop()
	b := &bench{opts: opts, out: out, truth: map[string]truthRow{}, speed: speed}
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var reports []report
	for _, w := range defs {
		start := time.Now()
		r, err := b.runWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		fmt.Fprintf(out, "# %s: %.1f s wall clock\n", w.name, time.Since(start).Seconds())
		line, err := json.Marshal(r.result)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%s\n", line)
		reports = append(reports, r)
	}
	return reports, nil
}

// checkHygiene refuses to measure when the process could use more CPUs
// than the machine has or the client could open more connections per host
// than there are CPUs: either would make the harness, not the fleet, the
// thing measured.
func checkHygiene() error {
	n := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p > n {
		return fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", p, n)
	}
	t, ok := newClient().Transport.(*http.Transport)
	if !ok || t.MaxConnsPerHost < 1 || t.MaxConnsPerHost > n {
		return fmt.Errorf("client MaxConnsPerHost must be within [1, nproc %d]", n)
	}
	return nil
}

// setup trains the knowledge and brings a fleet up to two healthy probes,
// setupReps times; setup_s is the median of the normalized times. The last
// snapshot serves every workload.
func (b *bench) setup() error {
	var measured, normalized []float64
	for i := 0; i < b.opts.setupReps; i++ {
		start := time.Now()
		snap, err := trainSnapshot()
		if err != nil {
			return err
		}
		f, err := newFleet(snap, nil, false)
		if err != nil {
			return err
		}
		end := time.Now()
		f.close()
		b.base = snap
		measured = append(measured, end.Sub(start).Seconds())
		normalized = append(normalized, end.Sub(start).Seconds()/b.speed.slowdown(start, end))
	}
	b.setupS = median(normalized)
	fmt.Fprintf(b.out, "# setup: %d set-ups (train + fleet up to two healthy probes): measured %.4f s, normalized %.4f s\n",
		len(measured), measured, normalized)
	return nil
}

// runWorkload measures one workload's untraced window and, with trace 1, a
// traced window on a second fleet.
func (b *bench) runWorkload(w workloadDef) (report, error) {
	plain, err := b.measure(w, false)
	if err != nil {
		return report{}, err
	}
	slow := b.speed.slowdown(plain.start, plain.end)
	problems := b.gate(w, plain)
	sum, lat := summarize(plain, false), calmSummary(plain)
	regret, err := b.regret(plain.quality)
	if err != nil {
		return report{}, err
	}
	if math.IsNaN(regret) || math.IsInf(regret, 0) {
		problems = append(problems, fmt.Sprintf("regret_pct %v is not finite", regret))
	}
	p50 := percentile(lat.answered, 0.5)
	e2e := map[string]float64{
		"setup_s":        b.setupS,
		"p50_ms":         p50 / slow,
		"p90_ms":         percentile(lat.answered, 0.9) / slow,
		"good_frac":      ratio(float64(lat.classes[good]), float64(lat.attempted)),
		"cpu_ms_per_req": ratio(plain.cpuMS, float64(sum.attempted)) / slow,
		"regret_pct":     regret,
		"rss_peak_mb":    plain.rssMB,
	}
	counts := plainCounters(w, plain, sum)
	b.printWindow(w, "untraced", sum, plain)
	fmt.Fprintf(b.out, "# %s: %.2f%% of CPU time stolen, %d of %d arrivals in flight then left out of latency and good_frac; "+
		"speed-kernel slowdown %.4f; measured p50 %.4f ms, p90 %.4f ms, cpu %.4f ms/req\n",
		w.name, plain.stealPct, sum.attempted-lat.attempted, sum.attempted, slow,
		p50, percentile(lat.answered, 0.9), ratio(plain.cpuMS, float64(sum.attempted)))
	printValues(b.out, w.name, endToEnd, e2e)
	if w.meterSpans && counts["serve.profile_hit_rate"] >= 0.02 {
		fmt.Fprintf(b.out, "# %s: WARNING profile hit rate %.4f >= 0.02: the traced window's unmemoized meter is not comparable\n",
			w.name, counts["serve.profile_hit_rate"])
	}
	rep := report{workload: w.name, e2e: fill(endToEnd, e2e)}
	if !b.opts.trace {
		printProblems(b.out, w.name, problems)
		rep.result = result{
			Correct:   len(problems) == 0,
			Attempted: sum.attempted,
			Failed:    sum.attempted - sum.classes[good],
			Metrics:   rep.e2e,
		}
		return rep, nil
	}

	traced, err := b.measure(w, true)
	if err != nil {
		return report{}, err
	}
	problems = append(problems, b.gate(w, traced)...)
	tsum := summarize(traced, false)
	b.printWindow(w, "traced", tsum, traced)
	layers := traced.tr.layerTimes()
	for k, v := range counts {
		layers[k] = v
	}
	tp50 := percentile(calmSummary(traced).answered, 0.5)
	layers["trace.overhead_pct"] = 100 * (ratio(tp50, p50) - 1)
	stage := percentile(tsum.late, 0.5)
	if w.path == viaRouter {
		stage += (layers["net.client_self_p50_us"] + layers["router.self_p50_us"] + layers["http.handler_p50_us"]) / 1000
	} else {
		stage += layers["serve.wait_p50_ms"] + layers["core.measure_p50_ms"] + layers["core.solve_p50_ms"]
	}
	layers["trace.stage_sum_ms"] = stage
	layers["trace.gap_ms"] = tp50 - stage
	printValues(b.out, w.name, perLayer, layers)
	fmt.Fprintf(b.out, "# %s: traced p50 %.4f ms = stage sum %.4f ms + gap %.4f ms (%.1f%% unaccounted)\n",
		w.name, tp50, stage, tp50-stage, 100*ratio(tp50-stage, tp50))
	printProblems(b.out, w.name, problems)
	rep.tr = traced.tr
	rep.result = result{
		Correct:   len(problems) == 0,
		Attempted: tsum.attempted,
		Failed:    tsum.attempted - tsum.classes[good],
		Metrics:   fill(perLayer, layers),
	}
	return rep, nil
}

// summary is the outcome accounting of a window, in milliseconds.
type summary struct {
	attempted int64
	classes   [numClasses]int64
	answered  []float64 // latency of every request answered OK
	predict   []float64 // ... of the predicts among them
	write     []float64 // ... of the absorbs and catalog updates among them
	late      []float64 // dispatcher lateness of every arrival
}

// summarize accounts the outcomes of a window; with calm, only those of the
// arrivals not in flight while CPU time was stolen.
func summarize(win *window, calm bool) summary {
	var s summary
	for i, o := range win.outs {
		if calm && o.stolen {
			continue
		}
		a := &win.arrivals[i]
		s.attempted++
		s.classes[o.class]++
		s.late = append(s.late, o.late)
		if o.class != good && o.class != late {
			continue
		}
		s.answered = append(s.answered, o.latency)
		if a.kind == loadgen.KindPredict {
			s.predict = append(s.predict, o.latency)
		} else {
			s.write = append(s.write, o.latency)
		}
	}
	return s
}

// calmSummary is summarize(win, true), or the whole window's summary when
// steal touched more than half of it and too little would be left.
func calmSummary(win *window) summary {
	if s := summarize(win, true); 2*s.attempted >= int64(len(win.outs)) {
		return s
	}
	return summarize(win, false)
}

// plainCounters derives the per-layer counters and client-side latencies of
// a window from the layers' own Stats deltas and the harness's samples.
func plainCounters(w workloadDef, win *window, sum summary) map[string]float64 {
	b, a := win.before, win.after
	requests := float64(a.leader.Requests - b.leader.Requests + a.follower.Requests - b.follower.Requests)
	hits := float64(a.leader.CacheHits - b.leader.CacheHits + a.follower.CacheHits - b.follower.CacheHits)
	misses := float64(a.leader.CacheMisses - b.leader.CacheMisses + a.follower.CacheMisses - b.follower.CacheMisses)
	batches := float64(a.leader.Batches - b.leader.Batches + a.follower.Batches - b.follower.Batches)
	phits := float64(a.leader.ProfileHits - b.leader.ProfileHits + a.follower.ProfileHits - b.follower.ProfileHits)
	pmisses := float64(a.leader.ProfileMisses - b.leader.ProfileMisses + a.follower.ProfileMisses - b.follower.ProfileMisses)
	return map[string]float64{
		"harness.late_p50_ms":      percentile(sum.late, 0.5),
		"harness.late_p99_ms":      percentile(sum.late, 0.99),
		"latency.predict_p50_ms":   percentile(sum.predict, 0.5),
		"latency.predict_p99_ms":   percentile(sum.predict, 0.99),
		"latency.write_p50_ms":     percentile(sum.write, 0.5),
		"latency.write_p90_ms":     percentile(sum.write, 0.9),
		"router.stale_skips":       float64(a.router.StaleSkips - b.router.StaleSkips),
		"router.failovers":         float64(a.router.Failovers - b.router.Failovers),
		"serve.hit_rate":           ratio(hits, requests),
		"serve.coalesced":          float64(a.leader.Coalesced - b.leader.Coalesced + a.follower.Coalesced - b.follower.Coalesced),
		"serve.mean_batch":         ratio(misses, batches),
		"serve.max_batch":          float64(max(a.leader.MaxBatch, a.follower.MaxBatch)),
		"serve.rejects":            float64(a.leader.QueueRejects - b.leader.QueueRejects + a.leader.Shed - b.leader.Shed + a.follower.QueueRejects - b.follower.QueueRejects + a.follower.Shed - b.follower.Shed),
		"serve.canceled_frac":      ratio(float64(a.leader.Canceled-b.leader.Canceled+a.follower.Canceled-b.follower.Canceled), misses),
		"serve.profile_hit_rate":   ratio(phits, phits+pmisses),
		"wal.checkpoints":          float64(a.wal.Checkpoints - b.wal.Checkpoints),
		"replicate.frames_shipped": float64(a.ship.FramesShipped - b.ship.FramesShipped),
		"replicate.bootstraps":     float64(a.ship.Bootstraps - b.ship.Bootstraps),
		"replicate.fetch_failures": float64(a.follow.Failures - b.follow.Failures),
	}
}

func (b *bench) printWindow(w workloadDef, label string, s summary, win *window) {
	fmt.Fprintf(b.out, "# %s (%s window): attempted %d =", w.name, label, s.attempted)
	for c := good; c < numClasses; c++ {
		fmt.Fprintf(b.out, " %s %d", classNames[c], s.classes[c])
	}
	fmt.Fprintf(b.out, " + unrecorded %d; %d answered; cpu %.0f ms; dispatcher late p50 %.4f ms, p99 %.4f ms\n",
		s.classes[unrecorded], len(s.answered), win.cpuMS, percentile(s.late, 0.5), percentile(s.late, 0.99))
}

// printValues prints one line per metric: workload, name, value, unit.
func printValues(out io.Writer, workload string, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "%-6s %-30s %14.6f %s\n", workload, d.Name, values[d.Name], d.Unit)
	}
}

func printProblems(out io.Writer, workload string, problems []string) {
	if len(problems) == 0 {
		fmt.Fprintf(out, "# %s: correctness gate passed\n", workload)
		return
	}
	for _, p := range problems {
		fmt.Fprintf(out, "# %s: GATE FAILED: %s\n", workload, p)
	}
}

// record is one line of a -results file: a run's result plus what it ran.
type record struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	result
}

func appendRecords(path string, opts options, reports []report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range reports {
		rec := record{
			Workload: r.workload, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
			NProc: runtime.NumCPU(), GoVersion: runtime.Version(), result: r.result,
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
