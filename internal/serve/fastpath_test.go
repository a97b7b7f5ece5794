package serve

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"vesta/internal/oracle"
	"vesta/internal/sim"
)

// TestMissCoalescingSingleflight pins the duplicate-miss fix at the execute
// level, deterministically: while one task owns the computation of a key
// (held inside the gated meter), concurrent same-key tasks must attach to
// its flight — counted as coalesced hits — and receive the owner's bytes,
// never spawning a second computation.
func TestMissCoalescingSingleflight(t *testing.T) {
	gate := newGate()
	s := newTestServer(t, Config{Workers: 4, MeterFor: gate.meterFor})
	t.Cleanup(gate.open)

	req, app, err := s.resolve(Request{App: "Spark-lr"})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	mk := func() *task {
		return &task{
			req: req, app: app, snap: snap,
			key: cacheKey{epoch: snap.Epoch(), fp: req.fingerprint()},
			ctx: context.Background(), done: make(chan taskResult, 1),
		}
	}

	const waiters = 3
	results := make(chan taskResult, waiters+1)
	go func() { results <- s.execute(mk()) }() // the future flight owner
	<-gate.entered                             // owner is now computing
	for i := 0; i < waiters; i++ {
		go func() { results <- s.execute(mk()) }()
	}
	// Every waiter must register on the owner's flight before we release it.
	waitFor(t, func() bool { return s.Stats().Coalesced == waiters })
	gate.open()

	var bodies [][]byte
	for i := 0; i < waiters+1; i++ {
		res := <-results
		if res.err != nil {
			t.Fatal(res.err)
		}
		bodies = append(bodies, res.body)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("coalesced result %d differs from the owner's bytes", i)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != waiters || st.Coalesced != waiters {
		t.Fatalf("misses/hits/coalesced = %d/%d/%d, want 1/%d/%d",
			st.CacheMisses, st.CacheHits, st.Coalesced, waiters, waiters)
	}
}

// TestConcurrentSameRequestCountsOneMiss is the end-to-end form of the
// duplicate-miss fix: however N concurrent identical requests interleave
// with admission, batching, and the flight lifecycle, exactly one counts a
// miss (and computes) and the other N-1 count hits.
func TestConcurrentSameRequestCountsOneMiss(t *testing.T) {
	const n = 8
	s := newTestServer(t, Config{Workers: 4, BatchSize: 16, QueueSize: 64})
	req := Request{App: "Spark-sort", Seed: 5, Top: 4}
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := s.PredictBytes(context.Background(), req)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs", i)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != n-1 {
		t.Fatalf("misses/hits = %d/%d, want 1/%d", st.CacheMisses, st.CacheHits, n-1)
	}
	if st.Requests != n {
		t.Fatalf("requests = %d, want %d", st.Requests, n)
	}
}

// TestHitsBypassQueue pins the hit-path dispatch fix: once a response is
// cached, repeats are answered at admission and never enqueue, so the batch
// counter stays at the single miss however many hits follow.
func TestHitsBypassQueue(t *testing.T) {
	s := newTestServer(t, Config{})
	req := Request{App: "Spark-grep", Seed: 2, Top: 3}
	first, err := s.PredictBytes(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	const repeats = 5
	for i := 0; i < repeats; i++ {
		body, err := s.PredictBytes(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, body) {
			t.Fatalf("repeat %d changed bytes", i)
		}
	}
	st := s.Stats()
	if st.Batches != 1 {
		t.Fatalf("batches = %d, want 1 (hits must not enqueue)", st.Batches)
	}
	if st.CacheMisses != 1 || st.CacheHits != repeats {
		t.Fatalf("misses/hits = %d/%d, want 1/%d", st.CacheMisses, st.CacheHits, repeats)
	}
}

// TestHitRateParityAcrossWorkers is the hit-rate regression test: with the
// admission fast path and miss coalescing, the hit/miss split is a pure
// function of the request mix — misses equal the distinct keys — so the
// measured hit rate is identical at 1 and 16 workers instead of decaying
// under concurrency.
func TestHitRateParityAcrossWorkers(t *testing.T) {
	corpus := replayCorpus() // 16 requests over 8 distinct keys
	var rates []float64
	for _, workers := range []int{1, 16} {
		s := newTestServer(t, Config{Workers: workers, BatchSize: 32})
		distinct := make(map[string]bool)
		for _, r := range corpus {
			rr, _, err := s.resolve(r)
			if err != nil {
				t.Fatal(err)
			}
			distinct[rr.fingerprint()] = true
		}
		replay(t, s, corpus)
		if t.Failed() {
			t.FailNow()
		}
		st := s.Stats()
		if got, want := int(st.CacheMisses), len(distinct); got != want {
			t.Errorf("workers=%d: misses = %d, want %d (one per distinct key)", workers, got, want)
		}
		if st.CacheHits+st.CacheMisses != int64(len(corpus)) {
			t.Errorf("workers=%d: hits+misses = %d, want %d (each request counted once)",
				workers, st.CacheHits+st.CacheMisses, len(corpus))
		}
		if want := float64(st.CacheHits) / float64(st.Requests); st.HitRate != want {
			t.Errorf("workers=%d: HitRate = %v, want hits/requests = %v", workers, st.HitRate, want)
		}
		rates = append(rates, st.HitRate)
	}
	if d := rates[0] - rates[1]; d > 0.01 || d < -0.01 {
		t.Fatalf("hit rate decayed with workers: %v vs %v", rates[0], rates[1])
	}
}

// TestServeMatchesSnapshotPredictFast pins the serving arm to the core fast
// path bit-for-bit: a request answered by a server (memoization off) equals
// the body built directly from Snapshot.PredictFast with a fresh
// per-request meter.
func TestServeMatchesSnapshotPredictFast(t *testing.T) {
	s := newTestServer(t, Config{ProfileCacheSize: -1})
	req := Request{App: "Spark-kmeans", Seed: 3, Top: 4}
	got, err := s.PredictBytes(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	resolved, app, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t)
	meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), resolved.Seed)
	pred, err := snap.PredictFast(app, meter)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.encodeResponse(snap, resolved, pred, meter.SimConfig().Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("serving arm diverged from Snapshot.PredictFast:\n got: %s\nwant: %s", got, want)
	}
}

// TestProfileMemoizationPreservesBytes: recalled profiles are pure
// functions of (app, vm, seed), so a memoizing server must produce exactly
// the bytes of a non-memoizing one — OnlineRuns accounting included, since
// it is part of the body — while actually skipping simulated campaigns.
func TestProfileMemoizationPreservesBytes(t *testing.T) {
	memo := newTestServer(t, Config{})
	raw := newTestServer(t, Config{ProfileCacheSize: -1})
	// Distinct fingerprints (Top differs) over the same profiling campaign
	// (same app, seed): the second request recalls every profile.
	reqs := []Request{
		{App: "Spark-lr", Seed: 2, Top: 3},
		{App: "Spark-lr", Seed: 2, Top: 5},
		{App: "Spark-bayes", Seed: 6, Top: 2},
	}
	for i, req := range reqs {
		a, err := memo.PredictBytes(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := raw.PredictBytes(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("request %d: memoized bytes differ from non-memoized", i)
		}
	}
	st := memo.Stats()
	if st.ProfileHits == 0 {
		t.Fatal("no profile recalls despite overlapping campaigns")
	}
	if st.ProfileMisses == 0 || st.ProfileLen == 0 {
		t.Fatalf("profile cache never populated: %+v", st)
	}
	if rst := raw.Stats(); rst.ProfileHits != 0 || rst.ProfileMisses != 0 || rst.ProfileLen != 0 {
		t.Fatalf("disabled profile cache reported activity: %+v", rst)
	}
}
