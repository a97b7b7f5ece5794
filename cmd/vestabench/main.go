// Command vestabench regenerates the paper's tables and figures.
//
// Usage:
//
//	vestabench                      # run every experiment
//	vestabench -exp fig6,fig8      # run a subset
//	vestabench -list               # list experiment ids
//	vestabench -seed 42            # change the deterministic seed
//	vestabench -md report.md       # also write a markdown report to a file
//	vestabench -workers 8          # worker pool inside each experiment
//	vestabench -trace out.jsonl    # write deterministic observability records
//	vestabench -v                  # verbose wall-clock progress on stderr
//	vestabench -cpuprofile cpu.pb  # write a pprof CPU profile
//	vestabench -memprofile mem.pb  # write a pprof heap profile at exit
//
// Output is byte-identical at every -workers value: the evaluation sweeps
// fan out over indexed, independently seeded tasks and collect results in
// index order. The -trace records share that contract (DESIGN.md §9); the
// -v stream and the pprof profiles are wall-clock artifacts and do not.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"vesta/internal/bench"
	"vesta/internal/obs"
)

func main() {
	var (
		expFlag   = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		listFlag  = flag.Bool("list", false, "list available experiments and exit")
		seedFlag  = flag.Uint64("seed", 1, "deterministic experiment seed")
		mdFlag    = flag.String("md", "", "also write a markdown report to this file")
		parFlag   = flag.Int("parallel", 1, "experiments run concurrently (each gets its own environment)")
		workFlag  = flag.Int("workers", 0, "worker pool size inside each experiment (0 = one per CPU); output is identical at every value")
		traceFlag = flag.String("trace", "", "write deterministic trace records (spans, counters, gauges) to this JSONL file")
		verbFlag  = flag.Bool("v", false, "stream verbose progress (wall timings, worker occupancy) to stderr")
		cpuFlag   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memFlag   = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuFlag != "" {
		f, err := os.Create(*cpuFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memFlag != "" {
		defer func() {
			f, err := os.Create(*memFlag)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var tracer *obs.Tracer
	if *traceFlag != "" || *verbFlag {
		tracer = obs.New()
		if *verbFlag {
			tracer.SetVerbose(os.Stderr)
		}
	}

	if *listFlag {
		for _, e := range bench.Registry() {
			fmt.Printf("%-20s %s\n", e.ID, e.Desc)
		}
		return
	}

	var selected []bench.Experiment
	if *expFlag == "" {
		selected = bench.Registry()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	out := os.Stdout

	var md io.Writer
	if *mdFlag != "" {
		f, err := os.Create(*mdFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		md = f
		fmt.Fprintf(md, "# Vesta experiment report (seed %d)\n\n", *seedFlag)
	}

	fmt.Fprintf(out, "Vesta experiment harness (seed %d, %d VM types, parallel %d)\n\n",
		*seedFlag, len(bench.NewEnv(*seedFlag).Catalog), *parFlag)

	// Experiments are independent and deterministic; with -parallel each
	// gets a private environment (the env's ground-truth cache is not
	// shared across goroutines) and results print in registry order.
	type outcome struct {
		table   *bench.Table
		elapsed float64
	}
	results := make([]outcome, len(selected))
	sem := make(chan struct{}, max(1, *parFlag))
	var wg sync.WaitGroup
	for i, e := range selected {
		wg.Add(1)
		go func(i int, e bench.Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			env := bench.NewEnvObs(*seedFlag, *workFlag, tracer)
			results[i] = outcome{table: e.Run(env), elapsed: time.Since(start).Seconds()}
		}(i, e)
	}
	wg.Wait()

	for i, e := range selected {
		fmt.Fprint(out, results[i].table.Render())
		fmt.Fprintf(out, "(%s in %.1fs)\n\n", e.ID, results[i].elapsed)
		if md != nil {
			fmt.Fprint(md, results[i].table.RenderMarkdown())
		}
	}

	if tracer != nil && *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tracer.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "trace: %d records written to %s\n", len(tracer.Records()), *traceFlag)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
