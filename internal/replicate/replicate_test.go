package replicate

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/serve"
	"vesta/internal/sim"
	"vesta/internal/wal"
	"vesta/internal/workload"
)

// baseWorkloads is the source-training workload count every epoch-0 snapshot
// reports (the b of the b+e consistency token).
const baseWorkloads = 13

var (
	fixOnce  sync.Once
	fixErr   error
	fixSnaps []*core.Snapshot // epochs 0 (base) .. 3
	fixRecs  []wal.Record     // the absorbs producing epochs 1..3
)

// fixture trains one system and pre-computes a three-absorb chain — the same
// shared read-only fixture shape the wal package uses: snapshots at epochs
// 0..3 plus the records that produce them.
func fixture(t testing.TB) ([]*core.Snapshot, []wal.Record) {
	t.Helper()
	fixOnce.Do(func() {
		sys, err := core.New(core.Config{Seed: 1}, cloud.Catalog120())
		if err != nil {
			fixErr = err
			return
		}
		meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), 1)
		if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), meter); err != nil {
			fixErr = err
			return
		}
		base, err := sys.Snapshot()
		if err != nil {
			fixErr = err
			return
		}
		fixSnaps = []*core.Snapshot{base}
		cur := base
		for i, appName := range []string{"Spark-kmeans", "Spark-sort", "Spark-grep"} {
			app, err := workload.ByName(appName)
			if err != nil {
				fixErr = err
				return
			}
			pred, err := cur.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), uint64(100+i)))
			if err != nil {
				fixErr = err
				return
			}
			target := fmt.Sprintf("target-%d", i+1)
			next, err := cur.Absorb(target, pred.LabelWeights, pred.PrunedVec)
			if err != nil {
				fixErr = err
				return
			}
			fixRecs = append(fixRecs, wal.Record{
				Name: target, LabelWeights: pred.LabelWeights,
				PrunedVec: pred.PrunedVec, Epoch: next.Epoch(),
			})
			fixSnaps = append(fixSnaps, next)
			cur = next
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixSnaps, fixRecs
}

// encodeSnap returns the snapshot's deterministic serialization — the state
// fingerprint the convergence assertions compare.
func encodeSnap(t testing.TB, sn *core.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newReplica builds a read-only serve.Server over snap, the follower half of
// a replication pair.
func newReplica(t testing.TB, snap *core.Snapshot, workers int) *serve.Server {
	t.Helper()
	srv, err := serve.New(snap, serve.Config{Workers: workers, QueueSize: 64, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// caughtUpLeader returns a memory-backed leader with the whole fixture chain
// appended and committed.
func caughtUpLeader(t testing.TB, cfg LeaderConfig) *Leader {
	t.Helper()
	snaps, recs := fixture(t)
	l, err := NewLeader(snaps[0], nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := l.Append(rec.Name, rec.LabelWeights, rec.PrunedVec, rec.Epoch); err != nil {
			t.Fatal(err)
		}
		if err := l.Committed(snaps[rec.Epoch]); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// transportFunc adapts a function to the Transport interface for fault
// crafting in tests.
type transportFunc func(from uint64) (*Batch, error)

func (f transportFunc) Fetch(from uint64) (*Batch, error) { return f(from) }

func TestLeaderAppendEpochGuard(t *testing.T) {
	snaps, recs := fixture(t)
	l, err := NewLeader(snaps[0], nil, LeaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 2 before epoch 1 is a gap; same epoch twice is a replay.
	if err := l.Append(recs[1].Name, recs[1].LabelWeights, recs[1].PrunedVec, recs[1].Epoch); err == nil {
		t.Fatal("epoch gap accepted")
	}
	if err := l.Append(recs[0].Name, recs[0].LabelWeights, recs[0].PrunedVec, recs[0].Epoch); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[0].Name, recs[0].LabelWeights, recs[0].PrunedVec, recs[0].Epoch); err == nil {
		t.Fatal("duplicate epoch accepted")
	}
	if got := l.Ack(); got != 1 {
		t.Fatalf("ack %d, want 1", got)
	}
}

func TestLeaderFetchCaughtUpIsEmpty(t *testing.T) {
	l := caughtUpLeader(t, LeaderConfig{})
	b, err := l.Fetch(l.Ack())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Frames) != 0 || len(b.Snapshot) != 0 || b.Ack != l.Ack() {
		t.Fatalf("caught-up batch not empty: %+v", b)
	}
}

func TestLeaderFetchFramesAreWALFrames(t *testing.T) {
	_, recs := fixture(t)
	l := caughtUpLeader(t, LeaderConfig{})
	b, err := l.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Snapshot) != 0 {
		t.Fatal("tail catch-up answered with a bootstrap")
	}
	got, valid, err := wal.ScanFrames(b.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if valid != int64(len(b.Frames)) {
		t.Fatalf("frames have %d unverifiable trailing bytes", int64(len(b.Frames))-valid)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		if rec.Name != recs[i].Name || rec.Epoch != recs[i].Epoch {
			t.Fatalf("record %d: got (%s, %d), want (%s, %d)",
				i, rec.Name, rec.Epoch, recs[i].Name, recs[i].Epoch)
		}
	}
	// A mid-chain token gets only the suffix.
	b2, err := l.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := wal.ScanFrames(b2.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 || got2[0].Epoch != 3 {
		t.Fatalf("suffix fetch: %+v", got2)
	}
}

func TestLeaderFetchFollowerAhead(t *testing.T) {
	l := caughtUpLeader(t, LeaderConfig{})
	if _, err := l.Fetch(l.Ack() + 1); !errors.Is(err, ErrFollowerAhead) {
		t.Fatalf("err = %v, want ErrFollowerAhead", err)
	}
}

func TestLeaderBootstrapBelowHorizon(t *testing.T) {
	snaps, _ := fixture(t)
	l := caughtUpLeader(t, LeaderConfig{MaxTail: 1})
	st := l.LeaderStats()
	if st.Horizon != 2 || st.TailLen != 1 {
		t.Fatalf("horizon %d tail %d, want 2 and 1", st.Horizon, st.TailLen)
	}
	b, err := l.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Snapshot) == 0 {
		t.Fatal("below-horizon fetch did not bootstrap")
	}
	snap, err := core.DecodeSnapshot(bytes.NewReader(b.Snapshot), snaps[0].Config(), snaps[0].Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch() != 3 || b.Ack != 3 {
		t.Fatalf("bootstrap at epoch %d ack %d, want 3", snap.Epoch(), b.Ack)
	}
	if !bytes.Equal(encodeSnap(t, snap), encodeSnap(t, snaps[3])) {
		t.Fatal("bootstrap image differs from the committed snapshot")
	}
	// Within the tail, frames still flow.
	b2, err := l.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Snapshot) != 0 || len(b2.Frames) == 0 {
		t.Fatalf("in-tail fetch bootstrapped: %+v", b2)
	}
}

func TestLeaderForwardsInnerWALStats(t *testing.T) {
	snaps, recs := fixture(t)
	mgr, recovered, err := wal.Open(snaps[0], wal.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	l, err := NewLeader(recovered, mgr, LeaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if err := l.Append(rec.Name, rec.LabelWeights, rec.PrunedVec, rec.Epoch); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Epoch != 1 || st.Appends != 1 || st.LogBytes == 0 {
		t.Fatalf("forwarded wal stats: %+v", st)
	}
	// The durable ack happened before the tail retained the record.
	if mgr.Epoch() != 1 {
		t.Fatalf("inner wal at epoch %d, want 1", mgr.Epoch())
	}
}

func TestFollowerSyncsToLeaderAck(t *testing.T) {
	snaps, recs := fixture(t)
	l := caughtUpLeader(t, LeaderConfig{})
	srv := newReplica(t, snaps[0], 2)
	f, err := NewFollower(srv, snaps[0], l, nil)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := f.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(recs) {
		t.Fatalf("applied %d, want %d", applied, len(recs))
	}
	if got := srv.Snapshot().Epoch(); got != 3 {
		t.Fatalf("follower at epoch %d, want 3", got)
	}
	if !bytes.Equal(encodeSnap(t, srv.Snapshot()), encodeSnap(t, snaps[3])) {
		t.Fatal("replayed state differs from the leader's snapshot")
	}
	st := f.Stats()
	if st.Syncs != 1 || st.Applied != 3 || st.Lag != 0 || st.LeaderAck != 3 || st.Broken {
		t.Fatalf("stats: %+v", st)
	}
	// A second sync is an empty no-op.
	if applied, err = f.SyncOnce(); err != nil || applied != 0 {
		t.Fatalf("caught-up sync: applied %d err %v", applied, err)
	}
}

func TestFollowerBootstrapSync(t *testing.T) {
	snaps, _ := fixture(t)
	// Negative MaxTail retains nothing: any follower behind the ack must
	// bootstrap from the committed snapshot.
	l := caughtUpLeader(t, LeaderConfig{MaxTail: -1})
	srv := newReplica(t, snaps[0], 2)
	f, err := NewFollower(srv, snaps[0], l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Bootstraps != 1 || st.Epoch != 3 {
		t.Fatalf("stats after bootstrap: %+v", st)
	}
	if !bytes.Equal(encodeSnap(t, srv.Snapshot()), encodeSnap(t, snaps[3])) {
		t.Fatal("bootstrapped state differs from the leader's snapshot")
	}
}

func TestFollowerIncrementalReplay(t *testing.T) {
	snaps, recs := fixture(t)
	l, err := NewLeader(snaps[0], nil, LeaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newReplica(t, snaps[0], 1)
	f, err := NewFollower(srv, snaps[0], l, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := l.Append(rec.Name, rec.LabelWeights, rec.PrunedVec, rec.Epoch); err != nil {
			t.Fatal(err)
		}
		if err := l.Committed(snaps[rec.Epoch]); err != nil {
			t.Fatal(err)
		}
		applied, err := f.SyncOnce()
		if err != nil || applied != 1 {
			t.Fatalf("epoch %d: applied %d err %v", rec.Epoch, applied, err)
		}
		if got, want := srv.Snapshot().Workloads(), baseWorkloads+int(rec.Epoch); got != want {
			t.Fatalf("token workloads %d at epoch %d, want %d", got, rec.Epoch, want)
		}
	}
}

func TestFollowerAheadFailsClosed(t *testing.T) {
	snaps, _ := fixture(t)
	l, err := NewLeader(snaps[0], nil, LeaderConfig{}) // ack 0
	if err != nil {
		t.Fatal(err)
	}
	srv := newReplica(t, snaps[1], 1) // follower already at epoch 1
	f, err := NewFollower(srv, snaps[0], l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SyncOnce(); !errors.Is(err, ErrFollowerAhead) {
		t.Fatalf("err = %v, want ErrFollowerAhead", err)
	}
	if f.Broken() == nil {
		t.Fatal("follower not broken after divergence")
	}
	// Fail-closed is sticky.
	if _, err := f.SyncOnce(); !errors.Is(err, ErrFollowerAhead) {
		t.Fatalf("broken follower synced again: %v", err)
	}
	if !f.Stats().Broken {
		t.Fatal("stats do not report broken")
	}
}

func TestFollowerCorruptFrameFailsClosed(t *testing.T) {
	snaps, _ := fixture(t)
	l := caughtUpLeader(t, LeaderConfig{})
	tr := transportFunc(func(from uint64) (*Batch, error) {
		b, err := l.Fetch(from)
		if err != nil {
			return nil, err
		}
		if len(b.Frames) > 10 {
			b.Frames[10] ^= 0xFF // flip one payload byte: CRC must catch it
		}
		return b, nil
	})
	srv := newReplica(t, snaps[0], 1)
	f, err := NewFollower(srv, snaps[0], tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SyncOnce(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("err = %v, want ErrBadStream", err)
	}
	if f.Broken() == nil {
		t.Fatal("follower not broken after corrupt stream")
	}
	// Nothing of the corrupt batch was applied.
	if srv.Snapshot().Epoch() != 0 {
		t.Fatalf("corrupt batch advanced the follower to %d", srv.Snapshot().Epoch())
	}
}

func TestFollowerEpochGapDiverges(t *testing.T) {
	snaps, recs := fixture(t)
	frame, err := wal.EncodeFrame(recs[1]) // epoch 2 with no epoch 1 before it
	if err != nil {
		t.Fatal(err)
	}
	tr := transportFunc(func(from uint64) (*Batch, error) {
		return &Batch{From: from, Ack: 2, Frames: frame}, nil
	})
	srv := newReplica(t, snaps[0], 1)
	f, err := NewFollower(srv, snaps[0], tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SyncOnce(); !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

func TestFollowerRecordBeyondAckDiverges(t *testing.T) {
	snaps, recs := fixture(t)
	frame, err := wal.EncodeFrame(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The batch claims ack 0 but carries epoch 1: the stream asserts state
	// the leader never acknowledged.
	tr := transportFunc(func(from uint64) (*Batch, error) {
		return &Batch{From: from, Ack: 0, Frames: frame}, nil
	})
	srv := newReplica(t, snaps[0], 1)
	f, err := NewFollower(srv, snaps[0], tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SyncOnce(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("err = %v, want ErrBadStream", err)
	}
}

func TestFollowerRewindDiverges(t *testing.T) {
	snaps, _ := fixture(t)
	// A leader ack behind the follower's own token is divergence even with an
	// otherwise-plausible batch.
	tr := transportFunc(func(from uint64) (*Batch, error) {
		return &Batch{From: from, Ack: 0}, nil
	})
	srv := newReplica(t, snaps[2], 1)
	f, err := NewFollower(srv, snaps[0], tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SyncOnce(); !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

func TestFollowerDuplicateDeliveryIsIdempotent(t *testing.T) {
	snaps, recs := fixture(t)
	var frames []byte
	for _, rec := range recs {
		fr, err := wal.EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr...)
	}
	// The transport always replays the full chain regardless of the token —
	// at-least-once delivery. Already-applied records must be skipped.
	tr := transportFunc(func(from uint64) (*Batch, error) {
		return &Batch{From: from, Ack: 3, Frames: frames}, nil
	})
	srv := newReplica(t, snaps[0], 1)
	f, err := NewFollower(srv, snaps[0], tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := f.SyncOnce(); err != nil || applied != 3 {
		t.Fatalf("first sync: applied %d err %v", applied, err)
	}
	if applied, err := f.SyncOnce(); err != nil || applied != 0 {
		t.Fatalf("duplicate sync: applied %d err %v", applied, err)
	}
	if !bytes.Equal(encodeSnap(t, srv.Snapshot()), encodeSnap(t, snaps[3])) {
		t.Fatal("duplicate delivery changed the state")
	}
}

func TestFollowerRetryableErrorDoesNotBreak(t *testing.T) {
	snaps, _ := fixture(t)
	l := caughtUpLeader(t, LeaderConfig{})
	fails := 2
	tr := transportFunc(func(from uint64) (*Batch, error) {
		if fails > 0 {
			fails--
			return nil, fmt.Errorf("transient network weather")
		}
		return l.Fetch(from)
	})
	srv := newReplica(t, snaps[0], 1)
	f, err := NewFollower(srv, snaps[0], tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.SyncOnce(); err == nil {
			t.Fatal("transient error swallowed")
		}
		if f.Broken() != nil {
			t.Fatal("transient error broke the follower")
		}
	}
	if _, err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Failures != 2 || st.Epoch != 3 {
		t.Fatalf("stats after recovery: %+v", st)
	}
}

func TestFollowerBaseTokenGuard(t *testing.T) {
	snaps, _ := fixture(t)
	srv := newReplica(t, snaps[1], 1)
	f, err := NewFollower(srv, snaps[1], nil, nil)
	if err == nil {
		_ = f
		t.Fatal("nil transport accepted")
	}
	f, err = NewFollower(srv, snaps[1], transportFunc(func(uint64) (*Batch, error) { return nil, nil }), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot below the base epoch violates the token ordering invariant.
	if err := f.tokenErr(snaps[0]); !errors.Is(err, ErrDiverged) {
		t.Fatalf("below-base token accepted: %v", err)
	}
	if err := f.tokenErr(snaps[3]); err != nil {
		t.Fatalf("valid lineage token rejected: %v", err)
	}
}

func TestHTTPReplicationRoundTrip(t *testing.T) {
	snaps, _ := fixture(t)
	l := caughtUpLeader(t, LeaderConfig{})
	ts := httptest.NewServer(l.Handler())
	t.Cleanup(ts.Close)

	tr := &HTTPTransport{URL: ts.URL}
	srv := newReplica(t, snaps[0], 2)
	f, err := NewFollower(srv, snaps[0], tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := f.SyncOnce(); err != nil || applied != 3 {
		t.Fatalf("http sync: applied %d err %v", applied, err)
	}
	if !bytes.Equal(encodeSnap(t, srv.Snapshot()), encodeSnap(t, snaps[3])) {
		t.Fatal("http-replicated state differs from the leader's snapshot")
	}

	// The wire surfaces divergence as the typed sentinel through a 409.
	if _, err := tr.Fetch(99); !errors.Is(err, ErrFollowerAhead) {
		t.Fatalf("409 not mapped: %v", err)
	}
	// A malformed token is a client error, not a crash.
	resp, err := ts.Client().Get(ts.URL + "/replicate/frames?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad token answered %d", resp.StatusCode)
	}
	// Status endpoint reports the shipping counters.
	resp, err = ts.Client().Get(ts.URL + "/replicate/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status answered %d", resp.StatusCode)
	}
}
