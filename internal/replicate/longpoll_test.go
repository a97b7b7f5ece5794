package replicate

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vesta/internal/wal"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timed out waiting for " + msg)
}

// TestFetchWaitDeliversOnAppend: a caught-up long poll parks, and the next
// append releases it with the new frames — push-style delivery, no polling
// interval in the lag path.
func TestFetchWaitDeliversOnAppend(t *testing.T) {
	snaps, recs := fixture(t)
	l, err := NewLeader(snaps[0], nil, LeaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		b   *Batch
		err error
	}
	got := make(chan result, 1)
	go func() {
		b, err := l.FetchWait(context.Background(), 0, 10*time.Second)
		got <- result{b, err}
	}()
	waitFor(t, 5*time.Second, func() bool { return l.LeaderStats().Waiters == 1 }, "waiter to park")

	rec := recs[0]
	if err := l.Append(rec.Name, rec.LabelWeights, rec.PrunedVec, rec.Epoch); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.b.Ack != 1 || len(r.b.Frames) == 0 {
			t.Fatalf("released batch = ack %d, %d frame bytes; want ack 1 with frames", r.b.Ack, len(r.b.Frames))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append did not release the parked fetch")
	}
	if w := l.LeaderStats().Waiters; w != 0 {
		t.Fatalf("waiters after release = %d, want 0", w)
	}
}

// TestFetchWaitExpiryIsEmptyOK: a long poll that expires with nothing new
// answers a plain caught-up batch over HTTP — 200 with empty frames, never an
// error status. An idle leader is healthy.
func TestFetchWaitExpiryIsEmptyOK(t *testing.T) {
	l := caughtUpLeader(t, LeaderConfig{})
	ts := httptest.NewServer(l.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/replicate/frames?from=3&wait=30ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expired long poll status = %d, want 200", resp.StatusCode)
	}
	var b Batch
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.From != 3 || b.Ack != 3 || len(b.Frames) != 0 || len(b.Snapshot) != 0 {
		t.Fatalf("expired long poll batch = %+v, want empty caught-up", b)
	}
}

// TestFetchWaitClientDisconnectReleasesWaiter: an abandoned long poll must
// not leak its waiter slot — the request context unparks it.
func TestFetchWaitClientDisconnectReleasesWaiter(t *testing.T) {
	l := caughtUpLeader(t, LeaderConfig{})
	ts := httptest.NewServer(l.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/replicate/frames?from=3&wait=30s", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return l.LeaderStats().Waiters == 1 }, "waiter to park")
	cancel()
	<-done
	waitFor(t, 5*time.Second, func() bool { return l.LeaderStats().Waiters == 0 }, "waiter to release on disconnect")
}

// TestFetchWaitCappedServerSide: the leader clamps the wait budget to its
// MaxWait whatever the client asks for, so a client cannot park goroutines
// for minutes.
func TestFetchWaitCappedServerSide(t *testing.T) {
	snaps, _ := fixture(t)
	l, err := NewLeader(snaps[0], nil, LeaderConfig{MaxWait: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	b, err := l.FetchWait(context.Background(), 0, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("10-minute wait request held for %v despite a 30ms server cap", elapsed)
	}
	if b.Ack != 0 || len(b.Frames) != 0 {
		t.Fatalf("capped wait batch = %+v, want empty", b)
	}
}

func TestFetchWaitBadDurationIs400(t *testing.T) {
	l := caughtUpLeader(t, LeaderConfig{})
	ts := httptest.NewServer(l.Handler())
	defer ts.Close()
	for _, wait := range []string{"bogus", "-5s"} {
		resp, err := http.Get(ts.URL + "/replicate/frames?from=3&wait=" + wait)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wait=%q status = %d, want 400", wait, resp.StatusCode)
		}
	}
}

// TestFollowerRunWaitStreams: the push loop replays appends end to end over
// HTTP — follower parked, leader appends, follower applies — and shuts down
// cleanly on context cancel.
func TestFollowerRunWaitStreams(t *testing.T) {
	snaps, recs := fixture(t)
	l, err := NewLeader(snaps[0], nil, LeaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(l.Handler())
	defer ts.Close()

	replica := newReplica(t, snaps[0], 1)
	f, err := NewFollower(replica, snaps[0], &HTTPTransport{URL: ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- f.RunWait(ctx, 10*time.Second, 10*time.Millisecond) }()

	for _, rec := range recs {
		if err := l.Append(rec.Name, rec.LabelWeights, rec.PrunedVec, rec.Epoch); err != nil {
			t.Fatal(err)
		}
		if err := l.Committed(snaps[rec.Epoch]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return replica.Snapshot().Epoch() == 3 }, "follower to stream to epoch 3")
	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("RunWait after cancel = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWait did not stop on cancel")
	}
	st := f.Stats()
	if st.Broken || st.Lag != 0 || st.Applied != 3 {
		t.Fatalf("follower stats after stream = %+v", st)
	}
}

// TestFollowerRunWaitPolls: with no wait budget, or over a transport that
// cannot long-poll, RunWait polls, one plain fetch every retry. It streams
// appends to the leader's epoch, returns nil on cancel, and returns the
// terminal error when the stream diverges.
func TestFollowerRunWaitPolls(t *testing.T) {
	snaps, recs := fixture(t)
	for _, wait := range []time.Duration{0, 10 * time.Second} {
		l, err := NewLeader(snaps[0], nil, LeaderConfig{})
		if err != nil {
			t.Fatal(err)
		}
		replica := newReplica(t, snaps[0], 1)
		// transportFunc hides the leader's FetchWait.
		f, err := NewFollower(replica, snaps[0], transportFunc(l.Fetch), nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		runDone := make(chan error, 1)
		go func() { runDone <- f.RunWait(ctx, wait, 10*time.Millisecond) }()
		for _, rec := range recs {
			if err := l.Append(rec.Name, rec.LabelWeights, rec.PrunedVec, rec.Epoch); err != nil {
				t.Fatal(err)
			}
			if err := l.Committed(snaps[rec.Epoch]); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 10*time.Second, func() bool { return replica.Snapshot().Epoch() == 3 }, "polling follower to reach epoch 3")
		cancel()
		select {
		case err := <-runDone:
			if err != nil {
				t.Fatalf("wait %v: RunWait after cancel = %v", wait, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("wait %v: RunWait did not stop on cancel", wait)
		}
		if st := f.Stats(); st.Broken || st.Lag != 0 || st.Applied != 3 {
			t.Fatalf("wait %v: follower stats after polling = %+v", wait, st)
		}
	}

	frame, err := wal.EncodeFrame(recs[1]) // epoch 2 with no epoch 1 before it
	if err != nil {
		t.Fatal(err)
	}
	gap := transportFunc(func(from uint64) (*Batch, error) {
		return &Batch{From: from, Ack: 2, Frames: frame}, nil
	})
	f, err := NewFollower(newReplica(t, snaps[0], 1), snaps[0], gap, nil)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- f.RunWait(context.Background(), 0, 10*time.Millisecond) }()
	select {
	case err := <-runDone:
		if !errors.Is(err, ErrDiverged) {
			t.Fatalf("RunWait over a diverging stream = %v, want ErrDiverged", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWait kept polling a diverged stream")
	}
}

// TestLeaderInstallResetsShipping: installing a candidate snapshot replaces
// ack, horizon, tail, and bootstrap image wholesale; a follower still on the
// old lineage bootstraps straight to it, and rewinds are refused.
func TestLeaderInstallResetsShipping(t *testing.T) {
	snaps, _ := fixture(t)
	l, err := NewLeader(snaps[0], nil, LeaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Install(snaps[2]); err != nil {
		t.Fatal(err)
	}
	st := l.LeaderStats()
	if st.Ack != 2 || st.Horizon != 2 || st.TailLen != 0 {
		t.Fatalf("post-install stats = %+v, want ack 2, horizon 2, empty tail", st)
	}
	b, err := l.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Snapshot) == 0 || b.Ack != 2 {
		t.Fatalf("old-token fetch after install = ack %d, snapshot %d bytes; want bootstrap at 2",
			b.Ack, len(b.Snapshot))
	}
	if err := l.Install(snaps[1]); err == nil {
		t.Fatal("install rewind accepted")
	}
}

// TestFollowerPausesWhileStaged: a follower whose server holds a staged
// rollout candidate applies nothing — replication resumes after the stage
// resolves, and the pause is counted, not treated as divergence.
func TestFollowerPausesWhileStaged(t *testing.T) {
	snaps, _ := fixture(t)
	l := caughtUpLeader(t, LeaderConfig{})
	replica := newReplica(t, snaps[0], 1)
	f, err := NewFollower(replica, snaps[0], l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Stage("v1", snaps[1]); err != nil {
		t.Fatal(err)
	}
	n, err := f.SyncOnce()
	if n != 0 || err != nil {
		t.Fatalf("staged sync = (%d, %v), want (0, nil)", n, err)
	}
	if st := f.Stats(); st.Paused != 1 || st.Broken {
		t.Fatalf("stats after staged sync = %+v, want Paused 1", st)
	}
	if err := replica.RevertStaged("v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if got := replica.Snapshot().Epoch(); got != 3 {
		t.Fatalf("epoch after unpause = %d, want 3", got)
	}
	if errors.Is(f.Broken(), ErrDiverged) {
		t.Fatal("pause broke the follower")
	}
}

// TestStatsResponsiveWhileParked: a follower parked in a long poll must
// still answer Stats() immediately — the follower's own /stats and /healthz
// are built on it, and a router probe that stalls behind a parked sync
// would eject a perfectly healthy backend from the ring.
func TestStatsResponsiveWhileParked(t *testing.T) {
	snaps, _ := fixture(t)
	l := caughtUpLeader(t, LeaderConfig{MaxTail: 16})
	ts := httptest.NewServer(l.Handler())
	defer ts.Close()
	f, err := NewFollower(newReplica(t, snaps[0], 1), snaps[0], &HTTPTransport{URL: ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SyncOnce(); err != nil { // catch up so the next round parks
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.SyncWait(ctx, 10*time.Second)
	}()
	waitFor(t, 5*time.Second, func() bool { return l.LeaderStats().Waiters == 1 }, "follower to park")

	start := time.Now()
	st := f.Stats()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Stats() took %v while the sync loop was parked; want immediate", d)
	}
	if st.Epoch != 3 || st.Broken {
		t.Fatalf("stats while parked = %+v, want epoch 3, not broken", st)
	}
	cancel()
	<-done
}
