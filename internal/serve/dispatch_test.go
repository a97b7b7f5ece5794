package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"vesta/internal/oracle"
	"vesta/internal/sim"
)

// meterForSeed is a Config.MeterFor that holds only the requests with the
// gated seed in g; every other request measures through a plain meter.
func (g *gate) meterForSeed(gated uint64) func(seed uint64) oracle.Service {
	return func(seed uint64) oracle.Service {
		if seed == gated {
			return g.meterFor(seed)
		}
		return oracle.NewMeter(sim.New(sim.DefaultConfig()), seed)
	}
}

// predictAsync starts one PredictBytes call and returns its result channel.
func predictAsync(s *Server, req Request) <-chan taskResult {
	res := make(chan taskResult, 1)
	go func() {
		body, err := s.PredictBytes(context.Background(), req)
		res <- taskResult{body: body, err: err}
	}()
	return res
}

// TestPerTaskDelivery pins work-conserving dispatch: a miss is answered the
// moment it is computed, not when some other miss that was queued beside it
// finishes. With request A held mid-compute, a distinct request B must run
// on the second worker and return while A is still held.
func TestPerTaskDelivery(t *testing.T) {
	gate := newGate()
	reqA := Request{App: "Spark-lr", Seed: 7}
	s := newTestServer(t, Config{Workers: 2, MeterFor: gate.meterForSeed(reqA.Seed)})
	t.Cleanup(gate.open)

	resA := predictAsync(s, reqA)
	<-gate.entered
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.PredictBytes(ctx, Request{App: "Spark-grep", Seed: 8}); err != nil {
		t.Fatalf("B waited on A: %v", err)
	}
	select {
	case r := <-resA:
		t.Fatalf("A answered while held: %v", r.err)
	default:
	}
	gate.open()
	if r := <-resA; r.err != nil {
		t.Fatal(r.err)
	}
	st := s.Stats()
	if st.CacheMisses != 2 || st.CacheHits != 0 || st.Superseded != 0 {
		t.Fatalf("misses/hits/superseded = %d/%d/%d, want 2/0/0 (no publish in flight)",
			st.CacheMisses, st.CacheHits, st.Superseded)
	}
	if st.Batches != 2 || st.MaxBatch != 2 {
		t.Fatalf("dispatched/peak running = %d/%d, want 2/2", st.Batches, st.MaxBatch)
	}
}

// TestSupersededMissAnswersNewEpoch pins the epoch-monotonicity rule: a miss
// held mid-compute while a publish lands is recomputed once against the new
// snapshot, so it can never answer with an older epoch than a miss that
// finished before it. The answer carries exactly the bytes a server built on
// the new snapshot gives, and the recompute counts Superseded, not a second
// miss.
func TestSupersededMissAnswersNewEpoch(t *testing.T) {
	gate := newGate()
	reqA := Request{App: "Spark-lr", Seed: 7, Top: 4}
	s := newTestServer(t, Config{Workers: 2, MeterFor: gate.meterForSeed(reqA.Seed)})
	t.Cleanup(gate.open)

	resA := predictAsync(s, reqA)
	<-gate.entered
	meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), 42)
	pred, err := s.Snapshot().PredictFast(mustApp(t, "Spark-grep"), meter)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Absorb("target-grep", pred.LabelWeights, pred.PrunedVec); err != nil {
		t.Fatal(err)
	}
	b, err := s.Predict(context.Background(), Request{App: "Spark-sort", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch != 1 {
		t.Fatalf("B epoch = %d, want 1", b.Epoch)
	}
	gate.open()
	r := <-resA
	if r.err != nil {
		t.Fatal(r.err)
	}
	a, err := decodeResponse(r.body)
	if err != nil {
		t.Fatal(err)
	}
	if a.Epoch != 1 || a.Workloads != baseWorkloads+1 {
		t.Fatalf("A answered (epoch %d, workloads %d) after B answered epoch 1; want (1, %d)",
			a.Epoch, a.Workloads, baseWorkloads+1)
	}
	fresh, err := New(s.Snapshot(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.PredictBytes(context.Background(), reqA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.body, want) {
		t.Fatalf("recomputed bytes differ from the new snapshot's:\n got: %s\nwant: %s", r.body, want)
	}
	st := s.Stats()
	if st.Superseded != 1 || st.CacheMisses != 2 || st.CacheHits != 0 {
		t.Fatalf("superseded/misses/hits = %d/%d/%d, want 1/2/0", st.Superseded, st.CacheMisses, st.CacheHits)
	}
	// The recomputed body is cached under the new epoch.
	again, err := s.PredictBytes(context.Background(), reqA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, r.body) || s.Stats().CacheHits != 1 {
		t.Fatalf("repeat of A was not a hit on the recomputed bytes")
	}
}

// TestStageSupersedesAtSameEpoch: snapshots compare by pointer, so staging
// a candidate at the incumbent's epoch still supersedes a miss computing
// against the incumbent.
func TestStageSupersedesAtSameEpoch(t *testing.T) {
	gate := newGate()
	reqA := Request{App: "Spark-lr", Seed: 7}
	s := newTestServer(t, Config{Workers: 2, MeterFor: gate.meterForSeed(reqA.Seed)})
	t.Cleanup(gate.open)

	resA := predictAsync(s, reqA)
	<-gate.entered
	if err := s.StageEncoded("v2", encodeSnapshot(t, s.Snapshot())); err != nil {
		t.Fatal(err)
	}
	gate.open()
	if r := <-resA; r.err != nil {
		t.Fatal(r.err)
	}
	if st := s.Stats(); st.Superseded != 1 || st.CacheMisses != 1 {
		t.Fatalf("superseded/misses = %d/%d, want 1/1", st.Superseded, st.CacheMisses)
	}
}
