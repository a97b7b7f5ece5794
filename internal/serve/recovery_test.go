package serve

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/wal"
)

// fakeWAL scripts the WriteAheadLog seam so the absorb ordering contract is
// testable without a filesystem.
type fakeWAL struct {
	appendErr error
	commitErr error
	onAppend  func(epoch uint64)
	appends   []uint64
	committed []uint64
}

func (f *fakeWAL) Append(name string, labelWeights, prunedVec []float64, epoch uint64) error {
	if f.onAppend != nil {
		f.onAppend(epoch)
	}
	if f.appendErr != nil {
		return f.appendErr
	}
	f.appends = append(f.appends, epoch)
	return nil
}

func (f *fakeWAL) AppendCatalog(up cloud.Update, epoch uint64) error {
	if f.onAppend != nil {
		f.onAppend(epoch)
	}
	if f.appendErr != nil {
		return f.appendErr
	}
	f.appends = append(f.appends, epoch)
	return nil
}

func (f *fakeWAL) Committed(snap *core.Snapshot) error {
	f.committed = append(f.committed, snap.Epoch())
	return f.commitErr
}

// absorbArgs runs one online prediction against the server's snapshot and
// returns the (labelWeights, prunedVec) pair Absorb wants — the documented
// completed-target flow.
func absorbArgs(t testing.TB, s *Server, app string, seed uint64) ([]float64, []float64) {
	t.Helper()
	meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), seed)
	pred, err := s.Snapshot().PredictFast(mustApp(t, app), meter)
	if err != nil {
		t.Fatal(err)
	}
	return pred.LabelWeights, pred.PrunedVec
}

// A failed durable append must leave the served state exactly as it was: the
// snapshot is not published, so no response can reveal an epoch a restart
// would forget.
func TestAbsorbWALAppendFailureNotPublished(t *testing.T) {
	fw := &fakeWAL{appendErr: errors.New("disk full")}
	s := newTestServer(t, Config{WAL: fw})
	lw, pv := absorbArgs(t, s, "Spark-kmeans", 7)
	err := s.Absorb("t1", lw, pv)
	if err == nil {
		t.Fatal("absorb acknowledged over a failed WAL append")
	}
	if !errors.Is(err, fw.appendErr) {
		t.Fatalf("err = %v, want wrapped append error", err)
	}
	if got := s.Snapshot().Epoch(); got != 0 {
		t.Fatalf("epoch after failed append = %d, want 0 (not published)", got)
	}
	st := s.Stats()
	if st.WALAppends != 0 || !st.Durable || st.Swaps != 0 {
		t.Fatalf("stats = %+v, want no appends, no swaps, durable", st)
	}
	if len(fw.committed) != 0 {
		t.Fatal("Committed ran for an unpublished absorb")
	}
	// The name is still free: the retry path works.
	fw.appendErr = nil
	if err := s.Absorb("t1", lw, pv); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Epoch(); got != 1 {
		t.Fatalf("epoch after retry = %d, want 1", got)
	}
}

// The durable ordering: append → fsync ack → publish. At Append time the new
// epoch must not be visible to readers yet; Committed then observes exactly
// the published snapshot.
func TestAbsorbAppendsBeforePublish(t *testing.T) {
	fw := &fakeWAL{}
	s := newTestServer(t, Config{WAL: fw})
	var publishedAtAppend uint64
	fw.onAppend = func(epoch uint64) { publishedAtAppend = s.Snapshot().Epoch() }
	lw, pv := absorbArgs(t, s, "Spark-sort", 9)
	if err := s.Absorb("t1", lw, pv); err != nil {
		t.Fatal(err)
	}
	if publishedAtAppend != 0 {
		t.Fatalf("published epoch at Append time = %d, want 0 (pre-publish)", publishedAtAppend)
	}
	if len(fw.appends) != 1 || fw.appends[0] != 1 {
		t.Fatalf("appends = %v, want [1]", fw.appends)
	}
	if len(fw.committed) != 1 || fw.committed[0] != 1 {
		t.Fatalf("committed = %v, want [1]", fw.committed)
	}
	st := s.Stats()
	if st.WALAppends != 1 || st.Epoch != 1 || !st.Durable {
		t.Fatalf("stats = %+v", st)
	}
}

// A failed compaction is operational noise: the record is already durable, so
// the absorb still succeeds and stays published.
func TestAbsorbCommittedFailureStillPublished(t *testing.T) {
	fw := &fakeWAL{commitErr: errors.New("compaction failed")}
	s := newTestServer(t, Config{WAL: fw})
	lw, pv := absorbArgs(t, s, "Spark-grep", 11)
	if err := s.Absorb("t1", lw, pv); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
}

// TestRecoveredServerServesIdenticalBytes is the serving half of the crash
// matrix: absorb through a real WAL, drop the server, recover from disk, and
// demand byte-identical predict responses at several worker counts — the
// replay-determinism sweep of DESIGN.md §11.
func TestRecoveredServerServesIdenticalBytes(t *testing.T) {
	base := testSnapshot(t)
	dir := t.TempDir()
	mgr, snap, err := wal.Open(base, wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(snap, Config{WAL: mgr})
	if err != nil {
		t.Fatal(err)
	}
	for _, ab := range []AbsorbRequest{
		{Name: "t1", App: "Spark-kmeans", Seed: 7},
		{Name: "t2", App: "Spark-sort", Seed: 8, InputGB: 32},
	} {
		resp, err := s1.AbsorbApp(ab)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Durable {
			t.Fatalf("absorb %s not durable", ab.Name)
		}
	}
	if got := s1.Snapshot().Epoch(); got != 2 {
		t.Fatalf("pre-crash epoch = %d, want 2", got)
	}
	reqs := []Request{
		{App: "Spark-kmeans"},
		{App: "Spark-grep", Seed: 3, Top: 7},
		{App: "Spark-lr", InputGB: 64, Seed: 2},
	}
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		if want[i], err = s1.PredictBytes(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	// Kill without checkpoint: recovery must come purely from base + WAL.
	s1.Close()
	mgr.Close()

	for _, workers := range []int{1, 4, 16} {
		mgr2, rsnap, err := wal.Open(base, wal.Config{Dir: dir})
		if err != nil {
			t.Fatalf("workers=%d: recovery: %v", workers, err)
		}
		if rsnap.Epoch() != 2 || rsnap.Workloads() != baseWorkloads+2 {
			t.Fatalf("workers=%d: recovered (%d, %d), want (2, %d)",
				workers, rsnap.Epoch(), rsnap.Workloads(), baseWorkloads+2)
		}
		s2, err := New(rsnap, Config{Workers: workers, WAL: mgr2})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reqs {
			got, err := s2.PredictBytes(context.Background(), r)
			if err != nil {
				t.Fatalf("workers=%d: predict %s: %v", workers, r.App, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("workers=%d: response %d differs from pre-crash bytes", workers, i)
			}
		}
		// Recovered state remembers its absorbs: re-absorbing answers conflict.
		if _, err := s2.AbsorbApp(AbsorbRequest{Name: "t1", App: "Spark-kmeans", Seed: 7}); !errors.Is(err, ErrConflict) {
			t.Fatalf("workers=%d: re-absorb err = %v, want ErrConflict", workers, err)
		}
		s2.Close()
		mgr2.Close()
	}
}

// TestCheckpointRoundTripsPlan is the crash-matrix entry for the precomputed
// predict plan: a checkpoint taken from a warm server carries the plan field,
// and recovery restores it — the recovered snapshot reports PlanReady without
// ever re-paying the plan solve, and serves byte-identical warm responses.
func TestCheckpointRoundTripsPlan(t *testing.T) {
	base := testSnapshot(t)
	dir := t.TempDir()
	mgr, snap, err := wal.Open(base, wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(snap, Config{WAL: mgr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.AbsorbApp(AbsorbRequest{Name: "t1", App: "Spark-kmeans", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{App: "Spark-lr", Seed: 2, Top: 5},
		{App: "Spark-grep", Seed: 3, Top: 7},
	}
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		if want[i], err = s1.PredictBytes(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint the published (warm, plan-bearing) snapshot, then crash.
	if err := mgr.Checkpoint(s1.Snapshot()); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	mgr.Close()

	mgr2, rsnap, err := wal.Open(base, wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if !rsnap.PlanReady() {
		t.Fatal("recovered checkpoint lost the precomputed plan (would re-pay the cold solve)")
	}
	if rsnap.Epoch() != 1 || rsnap.Workloads() != baseWorkloads+1 {
		t.Fatalf("recovered (%d, %d), want (1, %d)", rsnap.Epoch(), rsnap.Workloads(), baseWorkloads+1)
	}
	s2, err := New(rsnap, Config{WAL: mgr2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	for i, r := range reqs {
		got, err := s2.PredictBytes(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("restored-plan response %d differs from pre-crash bytes", i)
		}
	}
}

// A request whose context is already dead must release its worker slot
// without computing (or building a meter for) a response nobody reads.
func TestCanceledTaskSkippedAndCounted(t *testing.T) {
	var factoryCalls atomic.Int64
	s := newTestServer(t, Config{Workers: 1, NoCache: true, MeterFor: func(seed uint64) oracle.Service {
		factoryCalls.Add(1)
		return oracle.NewMeter(sim.New(sim.DefaultConfig()), seed)
	}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PredictBytes(ctx, Request{App: "Spark-kmeans"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled counter never incremented")
		}
		time.Sleep(time.Millisecond)
	}
	if n := factoryCalls.Load(); n != 0 {
		t.Fatalf("meter factory ran %d times for a canceled request", n)
	}
	// The released slot answers the next request normally.
	if _, err := s.Predict(context.Background(), Request{App: "Spark-kmeans"}); err != nil {
		t.Fatal(err)
	}
	if n := factoryCalls.Load(); n != 1 {
		t.Fatalf("live request built %d meters, want 1", n)
	}
}
