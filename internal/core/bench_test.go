package core

import (
	"fmt"
	"testing"

	"vesta/internal/obs"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// BenchmarkTrainOffline measures the offline phase (per-source profiling
// fan-out plus parallel K-Means restarts) at several worker counts. The
// trained knowledge is byte-identical at every count.
func BenchmarkTrainOffline(b *testing.B) {
	sources := workload.BySet(workload.SourceTraining)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := New(Config{Seed: 1, Workers: workers}, catalog)
				if err != nil {
					b.Fatal(err)
				}
				meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), 1)
				if err := sys.TrainOffline(sources, meter); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTracing measures the observability tax on the full train +
// predict pipeline: "off" runs with a nil tracer (the default — every
// instrumentation site reduces to a nil check), "on" records the complete
// span/counter/gauge stream. The acceptance bar is off ≤ 1.05x the
// pre-instrumentation baseline (results/obs.md).
func BenchmarkTracing(b *testing.B) {
	sources := workload.BySet(workload.SourceTraining)
	targets := workload.TargetSet()
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var tracer *obs.Tracer
				if mode == "on" {
					tracer = obs.New()
				}
				sys, err := New(Config{Seed: 1, Workers: 4, Tracer: tracer}, catalog)
				if err != nil {
					b.Fatal(err)
				}
				cfg := sim.DefaultConfig()
				cfg.Tracer = tracer
				meter := oracle.NewMeter(sim.New(cfg), 1).SetTracer(tracer)
				if err := sys.TrainOffline(sources, meter); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.PredictBatch(targets, func(j int) oracle.Service {
					m := oracle.NewMeter(sim.New(cfg), 0xE0+uint64(j))
					return m.SetTracer(tracer)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictBatch measures the online phase over the 12 Spark targets
// (one fold-in per target) at several worker counts.
func BenchmarkPredictBatch(b *testing.B) {
	sys, err := New(Config{Seed: 1}, catalog)
	if err != nil {
		b.Fatal(err)
	}
	meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), 1)
	if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), meter); err != nil {
		b.Fatal(err)
	}
	targets := workload.TargetSet()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sys.cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := sys.PredictBatch(targets, func(j int) oracle.Service {
					return oracle.NewMeter(sim.New(sim.DefaultConfig()), 0xE0+uint64(j))
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
