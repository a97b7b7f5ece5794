package serve

import (
	"context"
	"strconv"
	"sync"
	"testing"

	"vesta/internal/workload"
)

// benchServe measures end-to-end request throughput at a given worker count
// under an arbitrary serving configuration; results/serve.md is produced
// from this benchmark. Workers and queue are fixed here so arms differ only
// in the fields the arm is about (cache, memoization).
func benchServe(b *testing.B, workers int, cfg Config) {
	cfg.Workers = workers
	cfg.QueueSize = 1024
	s, err := New(testSnapshot(b), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	apps := []string{"Spark-kmeans", "Spark-lr", "Spark-sort", "Spark-grep"}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 64) // bounded client concurrency
	for i := 0; i < b.N; i++ {
		req := Request{App: apps[i%len(apps)], Seed: uint64(i%8 + 1), Top: 3}
		wg.Add(1)
		sem <- struct{}{}
		go func(req Request) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := s.PredictBytes(context.Background(), req); err != nil {
				b.Error(err)
			}
		}(req)
	}
	wg.Wait()
	b.StopTimer()
	st := s.Stats()
	if st.Requests > 0 {
		b.ReportMetric(st.HitRate, "hit-rate")
		b.ReportMetric(float64(st.MaxBatch), "peak-running")
	}
}

// Cached arms measure steady-state traffic (repeated queries, high hit
// rate); NoCache arms expose the raw compute scaling of the worker pool.
func BenchmarkServeWorkers1(b *testing.B)         { benchServe(b, 1, Config{}) }
func BenchmarkServeWorkers4(b *testing.B)         { benchServe(b, 4, Config{}) }
func BenchmarkServeWorkers16(b *testing.B)        { benchServe(b, 16, Config{}) }
func BenchmarkServeWorkers1NoCache(b *testing.B)  { benchServe(b, 1, Config{NoCache: true}) }
func BenchmarkServeWorkers4NoCache(b *testing.B)  { benchServe(b, 4, Config{NoCache: true}) }
func BenchmarkServeWorkers16NoCache(b *testing.B) { benchServe(b, 16, Config{NoCache: true}) }

// The uncached-arm ladder of DESIGN.md §12, all at 4 workers with the
// response cache off so every request pays the predict path:
//
//	Legacy     — the pre-plan algorithm, rebuilt as a reference outside
//	             the server: an unmemoized meter plus a cold CMF solve of
//	             Algorithm 1 per request (legacyArm).
//	FoldIn     — the serving path with profile memoization off.
//	FoldInMemo — the default serving path (fold-in + profile memoization).
func BenchmarkPredictNoCacheLegacy(b *testing.B) {
	benchLegacy(b, 4)
}
func BenchmarkPredictNoCacheFoldIn(b *testing.B) {
	benchServe(b, 4, Config{NoCache: true, ProfileCacheSize: -1})
}
func BenchmarkPredictNoCacheFoldInMemo(b *testing.B) {
	benchServe(b, 4, Config{NoCache: true})
}

// BenchmarkPredictColdMix is perf's cold workload offline: one request at a
// time over all 30 Table 3 apps, each with a seed no earlier request used,
// on the default Config. Every request misses the response cache and the
// profile memo, so each pays its whole measurement campaign (the sandbox and
// three random VMs) and the fold-in. The Spark-only NoCache arms above
// understate it: Hadoop and Hive profiles cost up to twice a Spark one.
func BenchmarkPredictColdMix(b *testing.B) {
	s, err := New(testSnapshot(b), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	apps := workload.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := Request{App: apps[i%len(apps)].Name, Seed: uint64(i + 1), Top: 3}
		if _, err := s.PredictBytes(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.HitRate != 0 {
		b.Fatalf("hit rate %v: a request was answered from the cache", st.HitRate)
	}
}

// BenchmarkAbsorbApp measures one POST /absorb without a WAL: placing the
// target (profiling and the plan fold-in), the K-Means refit and the
// copy-on-write publish. memo-cold gives every absorb a fresh seed, so each
// pays its whole profiling campaign; memo-warm repeats a request whose
// profiles the memo already holds.
func BenchmarkAbsorbApp(b *testing.B) {
	for _, arm := range []struct {
		name string
		seed func(i int) uint64
	}{
		{"memo-cold", func(i int) uint64 { return uint64(i + 2) }},
		{"memo-warm", func(int) uint64 { return 1 }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			s, err := New(testSnapshot(b), Config{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.PredictBytes(context.Background(), Request{App: "Spark-kmeans", Seed: 1}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := AbsorbRequest{Name: "bench-" + strconv.Itoa(i), App: "Spark-kmeans", Seed: arm.seed(i)}
				if _, err := s.AbsorbApp(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchLegacy runs benchServe's request mix at the same client concurrency
// through the legacy arm of the bench-predict gate, so it differs from the
// serving arms only in the predict algorithm and memoization.
func benchLegacy(b *testing.B, workers int) {
	arm := newLegacyArm(b)
	apps := []string{"Spark-kmeans", "Spark-lr", "Spark-sort", "Spark-grep"}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < b.N; i++ {
		req := Request{App: apps[i%len(apps)], Seed: uint64(i%8 + 1), Top: 3}
		wg.Add(1)
		sem <- struct{}{}
		go func(req Request) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := arm.predictBytes(req); err != nil {
				b.Error(err)
			}
		}(req)
	}
	wg.Wait()
}
