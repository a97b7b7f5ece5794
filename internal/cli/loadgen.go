package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/loadgen"
	"vesta/internal/serve"
	"vesta/internal/sim"
)

// trafficFlagNames are the explicit pattern/traffic flags that conflict with
// -config (which supplies the whole traffic description as JSON).
var trafficFlagNames = map[string]bool{
	"pattern": true, "rps": true, "amplitude": true, "period": true,
	"duty": true, "end-rps": true, "duration": true, "mix": true,
	"tenants": true, "zipf": true, "apps": true,
}

// cmdLoadgen drives the deterministic open-loop load generator (DESIGN.md
// §15): a single simulated run by default, the admission auto-tuner with
// -tune, the full capacity-planning report with -report, or a wall-clock
// replay against a real in-process server with -live -knowledge K.
func cmdLoadgen(f *Factory, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(f.Err)
	// Traffic shape.
	configFile := fs.String("config", "", "JSON traffic config (see loadgen.ParseConfig); mutually exclusive with the pattern/mix flags")
	pattern := fs.String("pattern", "steady", "rate pattern: steady, diurnal, burst, or ramp")
	rps := fs.Float64("rps", 500, "base arrival rate (req/s)")
	amplitude := fs.Float64("amplitude", 0.5, "diurnal swing fraction [0,1) or burst multiplier >= 1")
	period := fs.Float64("period", 60, "diurnal/burst period (s)")
	duty := fs.Float64("duty", 1, "burst on-duration within each period (s)")
	endRPS := fs.Float64("end-rps", 0, "ramp final rate (req/s); defaults to 2x -rps")
	duration := fs.Float64("duration", 60, "virtual run length (s)")
	seed := fs.Uint64("seed", 1, "schedule and service-noise seed")
	mixFlag := fs.String("mix", "", "traffic mix as kind=weight pairs, e.g. predict=0.99,absorb=0.006,catalog=0.004 (default: the report mix)")
	tenants := fs.Int("tenants", 10000, "tenant population (Zipf-popular, premium top decile)")
	zipfS := fs.Float64("zipf", 1.1, "Zipf skew exponent (0 = uniform)")
	appsFlag := fs.String("apps", "", "comma-separated candidate applications (default: all of Table 3)")
	// Modeled node knobs.
	queue := fs.Int("queue", 256, "modeled admission queue depth")
	batch := fs.Int("batch", 16, "modeled dispatch batch size")
	simWorkers := fs.Int("sim-workers", 8, "modeled per-node worker pool")
	shedThreshold := fs.Float64("shed-threshold", 0, "shed best-effort traffic at this queue-occupancy fraction (0 disables)")
	timeoutMS := fs.Float64("timeout-ms", 250, "client deadline (ms)")
	cacheSize := fs.Int("cache", 1024, "modeled response-cache entries (0 disables)")
	// Modes.
	tune := fs.Bool("tune", false, "sweep (queue, batch, shed) against -target-p99 and report the winner")
	targetP99 := fs.Float64("target-p99", 50, "tuner/plan latency objective (ms)")
	planFlag := fs.String("plan", "", "comma-separated fleet loads (req/s) to size, e.g. 1000,10000,1000000")
	report := fs.Bool("report", false, "render the full capacity-planning report (pattern matrix + tuner + plan)")
	live := fs.Bool("live", false, "replay the schedule against a real in-process server (wall clock; requires -knowledge)")
	knowledgeFile := fs.String("knowledge", "", "knowledge file for -live (from 'vesta profile')")
	timeScale := fs.Float64("time-scale", 1, "-live schedule compression: 0.1 replays 10x faster")
	workers := fs.Int("workers", 0, "evaluation fan-out for sweeps and the report (0 = one per CPU); output is identical at every value")
	outFile := fs.String("o", "", "write output to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Mutual exclusions: the factory-seam tests pin each of these.
	var trafficFlagsSet []string
	fs.Visit(func(fl *flag.Flag) {
		if trafficFlagNames[fl.Name] {
			trafficFlagsSet = append(trafficFlagsSet, fl.Name)
		}
	})
	if *configFile != "" && len(trafficFlagsSet) > 0 {
		sort.Strings(trafficFlagsSet)
		return fmt.Errorf("loadgen: -config and -%s are mutually exclusive (the config file carries the whole traffic description)",
			strings.Join(trafficFlagsSet, ", -"))
	}
	if *live && *knowledgeFile == "" {
		return fmt.Errorf("loadgen: -live requires -knowledge (a real server needs trained state)")
	}
	if *live && *tune {
		return fmt.Errorf("loadgen: -live and -tune are mutually exclusive (the tuner sweeps the deterministic model)")
	}
	if *live && *report {
		return fmt.Errorf("loadgen: -live and -report are mutually exclusive (the report is a deterministic artifact)")
	}
	if *report && *tune {
		return fmt.Errorf("loadgen: -report already includes the tuner sweep; drop -tune")
	}

	var cfg loadgen.Config
	if *configFile != "" {
		r, err := f.Open(*configFile)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			return err
		}
		cfg, err = loadgen.ParseConfig(data)
		if err != nil {
			return err
		}
	} else {
		p := loadgen.Pattern{Kind: loadgen.PatternKind(*pattern), RPS: *rps}
		switch p.Kind {
		case loadgen.Steady:
		case loadgen.Diurnal:
			p.Amplitude, p.PeriodSec = *amplitude, *period
		case loadgen.Burst:
			p.Amplitude, p.PeriodSec, p.DutySec = *amplitude, *period, *duty
			if p.Amplitude < 1 {
				p.Amplitude = 4
			}
		case loadgen.Ramp:
			p.EndRPS = *endRPS
			if p.EndRPS == 0 {
				p.EndRPS = 2 * *rps
			}
		default:
			return fmt.Errorf("loadgen: unknown -pattern %q (want steady, diurnal, burst, or ramp)", *pattern)
		}
		mix, err := parseMix(*mixFlag)
		if err != nil {
			return err
		}
		cfg = loadgen.Config{
			Seed:        *seed,
			DurationSec: *duration,
			Pattern:     p,
			Mix:         mix,
			Tenants:     *tenants,
			ZipfS:       *zipfS,
		}
		if *appsFlag != "" {
			cfg.Apps = strings.Split(*appsFlag, ",")
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	knobs := loadgen.Knobs{
		QueueDepth:    *queue,
		BatchSize:     *batch,
		Workers:       *simWorkers,
		ShedThreshold: *shedThreshold,
		TimeoutMS:     *timeoutMS,
		CacheSize:     *cacheSize,
	}

	out := f.Out
	if *outFile != "" {
		w, err := f.Create(*outFile)
		if err != nil {
			return err
		}
		defer w.Close()
		out = w
	}

	switch {
	case *report:
		spec := loadgen.DefaultReportSpec()
		spec.Seed = *seed
		spec.TargetP99MS = *targetP99
		spec.EvalWorkers = *workers
		md, err := loadgen.RenderReport(spec)
		if err != nil {
			return err
		}
		if _, err := out.Write(md); err != nil {
			return err
		}
		if *outFile != "" {
			fmt.Fprintf(f.Out, "report written to %s\n", *outFile)
		}
		return nil
	case *live:
		return runLive(f, out, cfg, knobs, *knowledgeFile, *seed, *timeScale)
	case *tune:
		cells, err := loadgen.Sweep(cfg, loadgen.TunerConfig{
			TargetP99MS: *targetP99,
			Workers:     knobs.Workers,
			TimeoutMS:   knobs.TimeoutMS,
			CacheSize:   knobs.CacheSize,
		}, *workers)
		if err != nil {
			return err
		}
		best, err := loadgen.Best(cells)
		if err != nil {
			return err
		}
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "QUEUE\tBATCH\tSHED\tGOODPUT(req/s)\tP99(ms)\tSHED+REJECT\tMEETS")
		for _, c := range cells {
			fmt.Fprintf(w, "%d\t%d\t%.2f\t%.0f\t%.2f\t%d\t%v\n",
				c.Knobs.QueueDepth, c.Knobs.BatchSize, c.Knobs.ShedThreshold,
				c.Report.GoodRPS, c.P99, c.Report.Shed+c.Report.Rejected, c.Meets)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwinner: queue=%d batch=%d shed=%.2f (goodput %.0f req/s at P99 %.2f ms, target %.0f ms)\n",
			best.Knobs.QueueDepth, best.Knobs.BatchSize, best.Knobs.ShedThreshold,
			best.Report.GoodRPS, best.P99, *targetP99)
		return printPlan(out, cfg, best.Knobs, *targetP99, *planFlag)
	default:
		rep, err := loadgen.Run(cfg, knobs)
		if err != nil {
			return err
		}
		printReport(out, rep)
		return printPlan(out, cfg, knobs, *targetP99, *planFlag)
	}
}

// parseMix decodes "kind=weight,kind=weight"; empty takes the report mix.
func parseMix(s string) ([]loadgen.MixEntry, error) {
	if s == "" {
		return loadgen.DefaultMix(), nil
	}
	var mix []loadgen.MixEntry
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("loadgen: mix entry %q (want kind=weight)", part)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: mix weight %q: %v", kv[1], err)
		}
		mix = append(mix, loadgen.MixEntry{Kind: loadgen.Kind(strings.TrimSpace(kv[0])), Weight: w})
	}
	return mix, nil
}

// parseLoads decodes the -plan comma-separated fleet loads.
func parseLoads(s string) ([]float64, error) {
	var loads []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: plan load %q: %v", part, err)
		}
		loads = append(loads, v)
	}
	return loads, nil
}

// printReport renders one simulated run's accounting.
func printReport(out io.Writer, rep *loadgen.Report) {
	sum := rep.Summary()
	fmt.Fprintf(out, "offered %d (%.0f req/s), goodput %d (%.0f req/s)\n",
		rep.Offered, rep.OfferedRPS, rep.Good, rep.GoodRPS)
	fmt.Fprintf(out, "shed %d, rejected %d, canceled %d, timed out %d\n",
		rep.Shed, rep.Rejected, rep.Canceled, rep.Timeout)
	fmt.Fprintf(out, "latency ms: p50 %.2f, p90 %.2f, p99 %.2f, p99.9 %.2f (mean %.2f over %d)\n",
		sum.P50, sum.P90, sum.P99, sum.P999, sum.Mean, int64(sum.Count))
	fmt.Fprintf(out, "cache: %d hits / %d misses, %d epoch bumps (%d absorbs, %d catalog updates)\n",
		rep.CacheHits, rep.CacheMisses, rep.Epochs, rep.Absorbs, rep.Catalogs)
	fmt.Fprintf(out, "gauges: queue max %d mean %.1f, batch max %d mean %.1f over %d batches\n",
		rep.QueueMax, rep.QueueMean, rep.BatchMax, rep.BatchMean, rep.Batches)
}

// printPlan appends a capacity plan when -plan asked for one.
func printPlan(out io.Writer, cfg loadgen.Config, k loadgen.Knobs, targetP99 float64, planFlag string) error {
	if planFlag == "" {
		return nil
	}
	loads, err := parseLoads(planFlag)
	if err != nil {
		return err
	}
	plan, err := loadgen.CapacityPlan(cfg, k, targetP99, loads)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nnode capacity %.0f req/s at P99 < %.0f ms (%.0f%% headroom):\n",
		plan.NodeCapacityRPS, plan.TargetP99MS, 100*(1-plan.Headroom))
	for _, row := range plan.Rows {
		fmt.Fprintf(out, "  %d nodes for %.0f req/s\n", row.Nodes, row.OfferedRPS)
	}
	return nil
}

// runLive replays the schedule against a real in-process server: trained
// state from the knowledge file, serve.Config mirroring the model knobs
// (all but the batch size: serve answers each task when it finishes),
// wall-clock latencies (outside the determinism contract).
func runLive(f *Factory, out io.Writer, cfg loadgen.Config, knobs loadgen.Knobs, knowledgeFile string, seed uint64, timeScale float64) error {
	sys, err := core.New(core.Config{Seed: seed}, cloud.Catalog120())
	if err != nil {
		return err
	}
	kf, err := f.Open(knowledgeFile)
	if err != nil {
		return err
	}
	defer kf.Close()
	if err := sys.LoadKnowledge(kf); err != nil {
		return err
	}
	snap, err := sys.Snapshot()
	if err != nil {
		return err
	}
	srv, err := serve.New(snap, serve.Config{
		QueueSize:     knobs.QueueDepth,
		Workers:       knobs.Workers,
		ShedThreshold: knobs.ShedThreshold,
		CacheSize:     knobs.CacheSize,
		NoCache:       knobs.CacheSize == 0,
		SimConfig:     sim.Config{Nodes: 4},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	sched, err := loadgen.Schedule(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "live replay: %d arrivals over %.0fs (time scale %g) against %s\n",
		len(sched), cfg.DurationSec*timeScale, timeScale, knowledgeFile)
	rep, err := loadgen.RunLive(context.Background(), srv, sched, loadgen.LiveConfig{
		TimeScale: timeScale,
		TimeoutMS: knobs.TimeoutMS,
	})
	if err != nil {
		return err
	}
	sum := rep.Hist.Summarize()
	fmt.Fprintf(out, "offered %d: good %d, shed %d, rejected %d, timed out %d, errored %d\n",
		rep.Offered, rep.Good, rep.Shed, rep.Rejected, rep.Timeout, rep.Errored)
	fmt.Fprintf(out, "wall-clock latency ms: p50 %.2f, p90 %.2f, p99 %.2f, p99.9 %.2f\n",
		sum.P50, sum.P90, sum.P99, sum.P999)
	st := rep.Stats
	fmt.Fprintf(out, "server stats: %d requests, %d hits (%.2f), %d shed, %d queue rejects, %d dispatched (peak %d running), epoch %d\n",
		st.Requests, st.CacheHits, st.HitRate, st.Shed, st.QueueRejects, st.Batches, st.MaxBatch, st.Epoch)
	return nil
}
