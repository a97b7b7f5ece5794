package serve

import (
	"context"
	"sync"
	"testing"
)

// benchServe measures end-to-end request throughput at a given worker count
// under an arbitrary serving configuration; results/serve.md is produced
// from this benchmark. Workers and queue are fixed here so arms differ only
// in the fields the arm is about (cache, cold/warm/approx, memoization).
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
//	Cold      — the historical arm: cold CMF solve, no profile memoization.
//	Warm      — precomputed-plan warm start, memoization off.
//	WarmMemo  — the default serving path (warm start + profile memoization).
//	Approx    — FreezeSource approximate mode on top of WarmMemo.
func BenchmarkPredictNoCacheCold(b *testing.B) {
	benchServe(b, 4, Config{NoCache: true, ColdStart: true, ProfileCacheSize: -1})
}
func BenchmarkPredictNoCacheWarm(b *testing.B) {
	benchServe(b, 4, Config{NoCache: true, ProfileCacheSize: -1})
}
func BenchmarkPredictNoCacheWarmMemo(b *testing.B) {
	benchServe(b, 4, Config{NoCache: true})
}
func BenchmarkPredictNoCacheApprox(b *testing.B) {
	benchServe(b, 4, Config{NoCache: true, Approx: true})
}
