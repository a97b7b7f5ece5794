package serve

import (
	"context"
	"reflect"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// TestMemoMeterTimingKeySpace: a memoized timing never answers a full
// profile lookup — the profile that follows it still carries its trace —
// every lookup of either kind charges one run, and the hit/miss counters
// count both kinds.
func TestMemoMeterTimingKeySpace(t *testing.T) {
	app, err := workload.ByName("Spark-lr")
	if err != nil {
		t.Fatal(err)
	}
	vm := cloud.ByName(cloud.Catalog120())["c5.xlarge"]
	cache := newProfileLRU(16)
	m := &memoMeter{sim: sim.New(sim.Config{Repeats: 3}), seed: 5, cache: cache}

	tm, _ := m.TryTime(app, vm)
	p, _ := m.TryProfile(app, vm)
	if p.Trace == nil || p.Trace.Len() == 0 {
		t.Fatal("full profile after a memoized timing came back without a trace")
	}
	if !reflect.DeepEqual(tm, p.Timing()) {
		t.Fatalf("timing %+v differs from the profile's %+v", tm, p.Timing())
	}
	if hits, misses := cache.counters(); hits != 0 || misses != 2 {
		t.Fatalf("after one lookup of each kind: hits %d misses %d, want 0 and 2", hits, misses)
	}

	tm2, _ := m.TryTime(app, vm)
	p2, _ := m.TryProfile(app, vm)
	if !reflect.DeepEqual(tm2, tm) || !reflect.DeepEqual(p2, p) {
		t.Fatal("recalled measurement differs from the computed one")
	}
	if hits, misses := cache.counters(); hits != 2 || misses != 2 || cache.len() != 2 {
		t.Fatalf("after recall: hits %d misses %d len %d, want 2, 2, 2", hits, misses, cache.len())
	}
	if m.Runs() != 4 {
		t.Fatalf("4 lookups charged %d runs", m.Runs())
	}
}

// TestMemoizedPredictCountsBothKinds: one predict is one full sandbox
// profile plus timing-only random picks; its online_runs charge is
// unchanged, and a repeat of the campaign recalls all of them.
func TestMemoizedPredictCountsBothKinds(t *testing.T) {
	s := newTestServer(t, Config{})
	first, err := s.Predict(context.Background(), Request{App: "Spark-lr", Seed: 2, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	runs := first.OnlineRuns
	if runs != 4 {
		t.Fatalf("online_runs = %d, want the sandbox plus 3 random picks", runs)
	}
	if st := s.Stats(); st.ProfileHits != 0 || st.ProfileMisses != int64(runs) {
		t.Fatalf("first campaign: hits %d misses %d, want 0 and %d", st.ProfileHits, st.ProfileMisses, runs)
	}
	again, err := s.Predict(context.Background(), Request{App: "Spark-lr", Seed: 2, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if again.OnlineRuns != runs {
		t.Fatalf("recalled campaign charged %d runs, want %d", again.OnlineRuns, runs)
	}
	if st := s.Stats(); st.ProfileHits != int64(runs) || st.ProfileMisses != int64(runs) {
		t.Fatalf("recalled campaign: hits %d misses %d, want %d and %d", st.ProfileHits, st.ProfileMisses, runs, runs)
	}
}
