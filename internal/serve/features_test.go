package serve

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/metrics"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// rawSnapshot trains one system that ranks on raw mean metric levels (the
// DESIGN.md feature ablation), the one feature mode whose sandbox profile
// must carry its trace.
var rawSnapshot = sync.OnceValues(func() (*core.Snapshot, error) {
	sys, err := core.New(core.Config{Seed: 1, UseRawFeatures: true, MatchThreshold: 1e9}, cloud.Catalog120())
	if err != nil {
		return nil, err
	}
	meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), 1)
	if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), meter); err != nil {
		return nil, err
	}
	return sys.Snapshot()
})

// TestRawFeaturesServeMatchesPredictFast: a server over a raw-features
// snapshot answers every request with the bytes Snapshot.PredictFast gives
// through the unmemoized oracle.NewMeter, at one and four workers, with the
// profile memo on and off, and the memo keeps full profiles for it.
func TestRawFeaturesServeMatchesPredictFast(t *testing.T) {
	snap, err := rawSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Spark-lr twice over one campaign (Top differs), so the memo recalls.
	reqs := []Request{
		{App: "Spark-lr", Seed: 2, Top: 3},
		{App: "Spark-lr", Seed: 2, Top: 5},
		{App: "Hadoop-terasort", Seed: 4, Top: 4},
		{App: "Hive-join", Seed: 9, Top: 2},
	}
	for _, workers := range []int{1, 4} {
		for _, cacheSize := range []int{0, -1} {
			name := fmt.Sprintf("workers-%d/memo-%v", workers, cacheSize == 0)
			t.Run(name, func(t *testing.T) {
				s, err := New(snap, Config{Workers: workers, ProfileCacheSize: cacheSize})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				got := make([][]byte, len(reqs))
				errs := make([]error, len(reqs))
				var wg sync.WaitGroup
				for i, req := range reqs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i], errs[i] = s.PredictBytes(context.Background(), req)
					}()
				}
				wg.Wait()
				for i, req := range reqs {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					resolved, app, err := s.resolve(req)
					if err != nil {
						t.Fatal(err)
					}
					meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), resolved.Seed)
					pred, err := snap.PredictFast(app, meter)
					if err != nil {
						t.Fatal(err)
					}
					want, err := s.encodeResponse(snap, resolved, pred, meter.SimConfig().Nodes)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got[i], want) {
						t.Fatalf("request %d diverged from Snapshot.PredictFast:\n got: %s\nwant: %s", i, got[i], want)
					}
				}
				if s.profiles == nil {
					return
				}
				s.profiles.mu.Lock()
				defer s.profiles.mu.Unlock()
				profiles := 0
				for _, el := range s.profiles.entries {
					switch e := el.Value.(*profileEntry); e.key.kind {
					case kindFeatures:
						t.Fatalf("raw-features server memoized a trace-less profile of %s", e.key.app)
					case kindProfile:
						if e.p.Trace == nil {
							t.Fatalf("memoized profile of %s has no trace", e.key.app)
						}
						profiles++
					}
				}
				if profiles != 3 {
					t.Fatalf("%d memoized sandbox profiles, want one per campaign (3)", profiles)
				}
			})
		}
	}
}

// TestMemoMeterFeaturesKeySpace: a memoized features-only profile never
// answers a lookup that needs the trace, and a full profile never answers a
// features lookup; each recalls only its own entry, and every lookup
// charges one run.
func TestMemoMeterFeaturesKeySpace(t *testing.T) {
	app, err := workload.ByName("Spark-lr")
	if err != nil {
		t.Fatal(err)
	}
	vm := cloud.ByName(cloud.Catalog120())["c5.xlarge"]
	cache := newProfileLRU(16)
	simulator := sim.New(sim.Config{Repeats: 3})
	lean := &memoMeter{sim: simulator, seed: 5, cache: cache, features: metrics.AllFeatures}
	full := &memoMeter{sim: simulator, seed: 5, cache: cache}

	fp, _ := lean.TryProfile(app, vm)
	if fp.Trace != nil {
		t.Fatal("features-only profile carries a trace")
	}
	p, _ := full.TryProfile(app, vm)
	if p.Trace == nil || p.Trace.Len() == 0 {
		t.Fatal("full profile after a memoized features-only one came back without a trace")
	}
	stripped := p
	stripped.Trace = nil
	if !reflect.DeepEqual(fp, stripped) {
		t.Fatal("features-only profile differs from the full one beyond the trace")
	}
	if hits, misses := cache.counters(); hits != 0 || misses != 2 {
		t.Fatalf("after one lookup of each kind: hits %d misses %d, want 0 and 2", hits, misses)
	}

	p2, _ := full.TryProfile(app, vm)
	fp2, _ := lean.TryProfile(app, vm)
	if !reflect.DeepEqual(p2, p) || !reflect.DeepEqual(fp2, fp) {
		t.Fatal("recalled profile differs from the computed one")
	}
	if hits, misses := cache.counters(); hits != 2 || misses != 2 || cache.len() != 2 {
		t.Fatalf("after recall: hits %d misses %d len %d, want 2, 2, 2", hits, misses, cache.len())
	}
	if lean.Runs() != 2 || full.Runs() != 2 {
		t.Fatalf("2 lookups per meter charged %d and %d runs", lean.Runs(), full.Runs())
	}
}

// TestProfileMemoHeapPerRequest bounds what the profile memo retains per
// memoized request: with the response cache off, 600 predicts on distinct
// seeds each leave one sandbox profile and three timings in the memo, and
// the live heap may grow by at most 3 KB per request (a memo entry holding
// the sandbox's full 17-series trace costs about 12 KB).
func TestProfileMemoHeapPerRequest(t *testing.T) {
	const n = 600
	s := newTestServer(t, Config{NoCache: true})
	predict := func(seed uint64) {
		if _, err := s.PredictBytes(context.Background(), Request{App: "Spark-lr", Seed: seed, Top: 3}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools and lazily built state before the baseline.
	for seed := uint64(1); seed <= 8; seed++ {
		predict(1_000_000 + seed)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what the first left in sync.Pool victims
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for seed := uint64(1); seed <= n; seed++ {
		predict(seed)
	}
	after := heap()
	if st := s.Stats(); st.ProfileLen != 4*(n+8) {
		t.Fatalf("memo holds %d entries, want %d (4 per request, none evicted)", st.ProfileLen, 4*(n+8))
	}
	var perReq float64
	if after > before {
		perReq = float64(after-before) / n
	}
	t.Logf("profile memo: %.0f B of live heap per memoized request", perReq)
	if perReq > 3<<10 {
		t.Fatalf("live heap grew %.0f B per memoized request, want at most %d", perReq, 3<<10)
	}
}
