package serve

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/obs"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// baseWorkloads is the source-training workload count every epoch-0 snapshot
// reports (the b of the b+e consistency token).
const baseWorkloads = 13

var (
	snapOnce sync.Once
	snapSys  *core.System
	snapVal  *core.Snapshot
	snapErr  error
)

// testSnapshot trains one system and shares its epoch-0 snapshot across the
// package's tests. Snapshots are immutable, so sharing is safe; each test
// builds its own Server (and Absorb never touches the shared base).
func testSnapshot(t testing.TB) *core.Snapshot {
	t.Helper()
	snapOnce.Do(func() {
		sys, err := core.New(core.Config{Seed: 1}, cloud.Catalog120())
		if err != nil {
			snapErr = err
			return
		}
		meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), 1)
		if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), meter); err != nil {
			snapErr = err
			return
		}
		snapSys = sys
		snapVal, snapErr = sys.Snapshot()
	})
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	return snapVal
}

// testKnowledge is the trained knowledge behind testSnapshot. Read only.
func testKnowledge(t testing.TB) *core.Knowledge {
	t.Helper()
	testSnapshot(t)
	return snapSys.Knowledge()
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(testSnapshot(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNewRejectsNilSnapshot(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

func TestPredictBasic(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	resp, err := s.Predict(context.Background(), Request{App: "Spark-kmeans", Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Target != "Spark-kmeans" {
		t.Fatalf("target = %q", resp.Target)
	}
	if resp.Epoch != 0 || resp.Workloads != baseWorkloads {
		t.Fatalf("consistency token = (epoch %d, workloads %d), want (0, %d)",
			resp.Epoch, resp.Workloads, baseWorkloads)
	}
	if resp.Best == "" {
		t.Fatal("empty best VM")
	}
	if len(resp.Ranking) != 5 {
		t.Fatalf("ranking length = %d, want 5", len(resp.Ranking))
	}
	if resp.Ranking[0].VM != resp.Best {
		t.Fatalf("ranking[0] = %q, best = %q", resp.Ranking[0].VM, resp.Best)
	}
	for _, e := range resp.Ranking {
		if e.PredictedUSD < 0 {
			t.Fatalf("negative predicted USD for %s", e.VM)
		}
	}
}

func TestResolveValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"missing app", Request{}, ErrBadRequest},
		{"negative input", Request{App: "Spark-lr", InputGB: -1}, ErrBadRequest},
		{"negative top", Request{App: "Spark-lr", Top: -1}, ErrBadRequest},
		{"unknown app", Request{App: "Flink-wat"}, ErrUnknownApp},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Predict(context.Background(), tc.req); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestRequestDefaults(t *testing.T) {
	s := newTestServer(t, Config{})
	// Seed 0 and seed 1 must be the same request (seed 0 takes the default).
	a, err := s.PredictBytes(context.Background(), Request{App: "Spark-lr"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.PredictBytes(context.Background(), Request{App: "Spark-lr", Seed: 1, Top: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("default-filled request differs from its explicit form")
	}
}

func TestTopClampsToCatalog(t *testing.T) {
	s := newTestServer(t, Config{})
	resp, err := s.Predict(context.Background(), Request{App: "Spark-lr", Top: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Ranking) != len(cloud.Catalog120()) {
		t.Fatalf("ranking length = %d, want full catalog %d",
			len(resp.Ranking), len(cloud.Catalog120()))
	}
}

func TestCacheHitsAndStats(t *testing.T) {
	tr := obs.New()
	s := newTestServer(t, Config{Tracer: tr})
	req := Request{App: "Spark-grep", Seed: 7, Top: 3}
	first, err := s.PredictBytes(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.PredictBytes(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache returned different bytes")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.CacheLen != 1 {
		t.Fatalf("cache len = %d, want 1", st.CacheLen)
	}
	if st.Requests != 2 || st.Batches < 1 || st.MaxBatch < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := tr.Counter("serve.cache_hits"); got != 1 {
		t.Fatalf("traced cache hits = %d, want 1", got)
	}
	// A different seed is a different request: miss, not hit.
	req.Seed = 8
	if _, err := s.PredictBytes(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("after seed change: hits/misses = %d/%d, want 1/2", st.CacheHits, st.CacheMisses)
	}
}

func TestNoCacheServesIdenticalBytes(t *testing.T) {
	cached := newTestServer(t, Config{})
	uncached := newTestServer(t, Config{NoCache: true})
	req := Request{App: "Spark-sort", Seed: 3}
	a, err := cached.PredictBytes(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := uncached.PredictBytes(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("cache state changed response bytes")
	}
	if st := uncached.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheLen != 0 {
		t.Fatalf("NoCache server touched the cache: %+v", st)
	}
}

// gate lets a test hold a worker mid-compute deterministically: the first
// gated measurement closes entered, every measurement blocks until open().
type gate struct {
	entered     chan struct{} // closed once on first TryProfile
	release     chan struct{}
	enterOnce   sync.Once
	releaseOnce sync.Once
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) open() { g.releaseOnce.Do(func() { close(g.release) }) }

// meterFor is a serve.Config.MeterFor that wraps each per-request meter in
// the gate.
func (g *gate) meterFor(seed uint64) oracle.Service {
	return &gatedService{Service: oracle.NewMeter(sim.New(sim.DefaultConfig()), seed), g: g}
}

type gatedService struct {
	oracle.Service
	g *gate
}

func (s *gatedService) TryProfile(app workload.App, vm cloud.VMType) (sim.Profile, error) {
	s.g.enterOnce.Do(func() { close(s.g.entered) })
	<-s.g.release
	return s.Service.TryProfile(app, vm)
}

func TestQueueFullBackpressure(t *testing.T) {
	gate := newGate()
	s := newTestServer(t, Config{
		Workers:   1,
		QueueSize: 1,
		BatchSize: 1,
		MeterFor:  gate.meterFor,
	})
	// LIFO cleanup: the gate must open before s.Close tries to drain.
	t.Cleanup(gate.open)

	// First request occupies the dispatcher (blocked inside the gate).
	res1 := make(chan error, 1)
	go func() {
		_, err := s.PredictBytes(context.Background(), Request{App: "Spark-lr"})
		res1 <- err
	}()
	<-gate.entered

	// Second request fills the queue (capacity 1).
	res2 := make(chan error, 1)
	go func() {
		_, err := s.PredictBytes(context.Background(), Request{App: "Spark-grep"})
		res2 <- err
	}()
	waitFor(t, func() bool { return s.Stats().QueueDepth == 1 })

	// Third request must bounce with the typed backpressure error.
	if _, err := s.PredictBytes(context.Background(), Request{App: "Spark-sort"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.QueueRejects != 1 {
		t.Fatalf("queue rejects = %d, want 1", st.QueueRejects)
	}

	// Releasing the gate drains both held requests successfully.
	gate.open()
	if err := <-res1; err != nil {
		t.Fatal(err)
	}
	if err := <-res2; err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseDrainsQueuedWork(t *testing.T) {
	gate := newGate()
	s, err := New(testSnapshot(t), Config{
		Workers:   1,
		QueueSize: 4,
		BatchSize: 1,
		MeterFor:  gate.meterFor,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gate.open)

	// Hold the dispatcher, park a second request in the queue.
	res1 := make(chan error, 1)
	go func() {
		_, err := s.PredictBytes(context.Background(), Request{App: "Spark-lr"})
		res1 <- err
	}()
	<-gate.entered
	res2 := make(chan error, 1)
	go func() {
		_, err := s.PredictBytes(context.Background(), Request{App: "Spark-grep"})
		res2 <- err
	}()
	waitFor(t, func() bool { return s.Stats().QueueDepth == 1 })

	// Close concurrently; it must wait for the backlog, not abandon it.
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	gate.open()
	<-closed
	if err := <-res1; err != nil {
		t.Fatal(err)
	}
	if err := <-res2; err != nil {
		t.Fatal(err)
	}

	// Admission after Close is the typed shutdown error, and Close is
	// idempotent.
	if _, err := s.PredictBytes(context.Background(), Request{App: "Spark-lr"}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("err = %v, want ErrShuttingDown", err)
	}
	s.Close()
}

func TestContextCancellation(t *testing.T) {
	gate := newGate()
	s := newTestServer(t, Config{Workers: 1, MeterFor: gate.meterFor})
	t.Cleanup(gate.open)
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := s.PredictBytes(ctx, Request{App: "Spark-lr"})
		res <- err
	}()
	<-gate.entered
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	gate.open() // let the abandoned task finish so Close can drain
}

func TestAbsorbAdvancesEpochAndInvalidatesCache(t *testing.T) {
	s := newTestServer(t, Config{})
	req := Request{App: "Spark-kmeans", Top: 3}
	before, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if before.Epoch != 0 || before.Workloads != baseWorkloads {
		t.Fatalf("before = (%d, %d)", before.Epoch, before.Workloads)
	}

	// Use a completed prediction as the absorbed target, the documented flow.
	meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), 42)
	app := mustApp(t, "Spark-grep")
	pred, err := s.Snapshot().PredictFast(app, meter)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Absorb("target-grep", pred.LabelWeights, pred.PrunedVec); err != nil {
		t.Fatal(err)
	}

	after, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != 1 || after.Workloads != baseWorkloads+1 {
		t.Fatalf("after = (%d, %d), want (1, %d)", after.Epoch, after.Workloads, baseWorkloads+1)
	}
	st := s.Stats()
	if st.Swaps != 1 || st.Epoch != 1 || st.Workloads != baseWorkloads+1 {
		t.Fatalf("stats after absorb = %+v", st)
	}
	// Both responses were computed, not served from a stale cache entry: the
	// epoch in the key separates them.
	if st.CacheMisses != 2 || st.CacheHits != 0 {
		t.Fatalf("cache hits/misses = %d/%d, want 0/2", st.CacheHits, st.CacheMisses)
	}
	// The base snapshot is untouched (copy-on-write, not in-place).
	if got := testSnapshot(t).Workloads(); got != baseWorkloads {
		t.Fatalf("base snapshot mutated: %d workloads", got)
	}
}

func TestUpdateErrorKeepsPublishedSnapshot(t *testing.T) {
	s := newTestServer(t, Config{})
	wantErr := errors.New("boom")
	err := s.Update(func(old *core.Snapshot) (*core.Snapshot, error) {
		return nil, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if s.Snapshot().Epoch() != 0 {
		t.Fatal("failed update advanced the snapshot")
	}
	if err := s.Publish(nil); err == nil {
		t.Fatal("nil publish accepted")
	}
}

func TestAbsorbDuplicateNameFails(t *testing.T) {
	s := newTestServer(t, Config{})
	meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), 5)
	pred, err := s.Snapshot().PredictFast(mustApp(t, "Spark-sort"), meter)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Absorb("dup", pred.LabelWeights, pred.PrunedVec); err != nil {
		t.Fatal(err)
	}
	if err := s.Absorb("dup", pred.LabelWeights, pred.PrunedVec); err == nil {
		t.Fatal("duplicate absorb accepted")
	}
	if got := s.Snapshot().Epoch(); got != 1 {
		t.Fatalf("epoch after failed absorb = %d, want 1", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	k := func(i uint64) cacheKey { return cacheKey{epoch: i, fp: "x"} }
	c.put(k(1), []byte("a"))
	c.put(k(2), []byte("b"))
	if _, ok := c.get(k(1)); !ok { // refresh 1: now 2 is LRU
		t.Fatal("entry 1 missing")
	}
	c.put(k(3), []byte("c")) // evicts 2
	if _, ok := c.get(k(2)); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.get(k(3)); !ok {
		t.Fatal("new entry missing")
	}
	c.put(k(3), []byte("c")) // re-put refreshes, no growth
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestErrorMessagesAreTyped(t *testing.T) {
	s := newTestServer(t, Config{})
	_, err := s.Predict(context.Background(), Request{App: "no-such-app"})
	if !errors.Is(err, ErrUnknownApp) || !strings.Contains(err.Error(), "no-such-app") {
		t.Fatalf("err = %v", err)
	}
}

func mustApp(t testing.TB, name string) workload.App {
	t.Helper()
	a, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
