package serve

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"vesta/internal/oracle"
	"vesta/internal/sim"
)

// absorbRecorder is a fakeWAL that also keeps every absorbed record, so a
// test can see exactly what an absorb made durable.
type absorbRecorder struct {
	fakeWAL
	weights, vecs [][]float64
}

func (r *absorbRecorder) Append(name string, labelWeights, prunedVec []float64, epoch uint64) error {
	if err := r.fakeWAL.Append(name, labelWeights, prunedVec, epoch); err != nil {
		return err
	}
	r.weights = append(r.weights, labelWeights)
	r.vecs = append(r.vecs, prunedVec)
	return nil
}

// sameBits reports whether two vectors are bit-for-bit identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// absorbPlan is the absorb sequence of the tests below: a converging
// target, an input-size override, the non-converging Spark-CF (whose
// weights fall back to the sandbox memberships) and a default seed.
var absorbPlan = []AbsorbRequest{
	{Name: "t1", App: "Spark-kmeans", Seed: 7},
	{Name: "t2", App: "Spark-sort", Seed: 9, InputGB: 3},
	{Name: "t3", App: "Spark-CF", Seed: 2},
	{Name: "t4", App: "Spark-grep"},
}

// TestAbsorbAppRecordsFoldIn: POST /absorb records exactly the label
// weights and pruned vector Snapshot.PredictFast gives for the same request
// against the pre-absorb snapshot, and publishes exactly the snapshot
// Snapshot.Absorb builds from them.
func TestAbsorbAppRecordsFoldIn(t *testing.T) {
	rec := &absorbRecorder{}
	s := newTestServer(t, Config{WAL: rec})
	for i, ab := range absorbPlan {
		pre := s.Snapshot()
		preq, app, err := s.resolve(Request{App: ab.App, InputGB: ab.InputGB, Seed: ab.Seed})
		if err != nil {
			t.Fatal(err)
		}
		pred, err := pre.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), preq.Seed))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.AbsorbApp(ab)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Epoch != pre.Epoch()+1 || len(rec.weights) != i+1 {
			t.Fatalf("%s: epoch %d after %d records, want %d after %d", ab.Name, resp.Epoch, len(rec.weights), pre.Epoch()+1, i+1)
		}
		if !sameBits(rec.weights[i], pred.LabelWeights) {
			t.Fatalf("%s: recorded weights %v, PredictFast gives %v", ab.Name, rec.weights[i], pred.LabelWeights)
		}
		if !sameBits(rec.vecs[i], pred.PrunedVec) {
			t.Fatalf("%s: recorded pruned vector %v, PredictFast gives %v", ab.Name, rec.vecs[i], pred.PrunedVec)
		}
		want, err := pre.Absorb(ab.Name, pred.LabelWeights, pred.PrunedVec)
		if err != nil {
			t.Fatal(err)
		}
		var got, exp bytes.Buffer
		if err := s.Snapshot().Encode(&got); err != nil {
			t.Fatal(err)
		}
		if err := want.Encode(&exp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), exp.Bytes()) {
			t.Fatalf("%s: published snapshot differs from Snapshot.Absorb of the fold-in result", ab.Name)
		}
	}
}

// TestAbsorbAppServesIdenticallyAtAnyWorkerCount: after every absorb of the
// plan, each request is answered with the same bytes at 1, 4 and 16
// workers.
func TestAbsorbAppServesIdenticallyAtAnyWorkerCount(t *testing.T) {
	keys := []Request{
		{App: "Spark-kmeans", Top: 5},
		{App: "Spark-sort", Seed: 9, InputGB: 3, Top: 120},
		{App: "Spark-grep", Seed: 3},
		{App: "Spark-CF", Seed: 4},
		{App: "Spark-lr", InputGB: 64, Seed: 2, Top: 7},
	}
	var ref [][]byte // every body at workers 1, in (absorb, key) order
	for _, workers := range []int{1, 4, 16} {
		s := newTestServer(t, Config{Workers: workers})
		var bodies [][]byte
		for _, ab := range absorbPlan {
			if _, err := s.AbsorbApp(ab); err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, predictAll(t, s, keys)...)
		}
		if ref == nil {
			ref = bodies
		}
		for i := range ref {
			if !bytes.Equal(bodies[i], ref[i]) {
				t.Fatalf("workers=%d: body %d differs from workers=1", workers, i)
			}
		}
	}
}

// predictAll answers every request concurrently, so the server's workers
// all take part, and returns the bodies in request order.
func predictAll(t *testing.T, s *Server, reqs []Request) [][]byte {
	t.Helper()
	out := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r Request) {
			defer wg.Done()
			out[i], errs[i] = s.PredictBytes(context.Background(), r)
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}
