package replicate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/obs"
	"vesta/internal/oracle"
	"vesta/internal/serve"
	"vesta/internal/sim"
	"vesta/internal/wal"
	"vesta/internal/workload"
)

// TestServingTraceGolden replays one sequential script through a serving
// fleet and pins every node's trace bytes against testdata/servingtrace.
// The fleet is a durable leader (wal.Manager under a replicate.Leader under a
// serve.Server), a read-only follower synced with SyncOnce, a router over
// both, and a one-worker gate server whose queue is filled on purpose. Each
// node has its own tracer, as each process does in a deployment. The script:
// cached and uncached predicts, frame and bootstrap syncs, one absorb, two
// catalog updates, a stale-skip failover, a dead-backend failover, a
// checkpoint, a shed and a queue-full reject. Every `trace`-tagged stats
// field must also equal its node's tr.Counter.
func TestServingTraceGolden(t *testing.T) {
	snaps, recs := fixture(t)
	leaderTr, followerTr, routerTr, gateTr := obs.New(), obs.New(), obs.New(), obs.New()

	mgr, start, err := wal.Open(snaps[0], wal.Config{Dir: t.TempDir(), Tracer: leaderTr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	// MaxTail 1: after the two catalog updates the follower's token falls
	// below the horizon and its next sync bootstraps.
	leader, err := NewLeader(start, mgr, LeaderConfig{MaxTail: 1, Tracer: leaderTr})
	if err != nil {
		t.Fatal(err)
	}
	leaderSrv, err := serve.New(start, serve.Config{Workers: 1, WAL: leader, Tracer: leaderTr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leaderSrv.Close)
	followerSrv, err := serve.New(snaps[0], serve.Config{Workers: 1, ReadOnly: true, Tracer: followerTr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(followerSrv.Close)
	follower, err := NewFollower(followerSrv, snaps[0], leader, followerTr)
	if err != nil {
		t.Fatal(err)
	}

	tsLeader := httptest.NewServer(leaderSrv.Handler())
	tsFollower := httptest.NewServer(followerSrv.Handler())
	t.Cleanup(tsLeader.Close)
	t.Cleanup(tsFollower.Close)
	// Fixed backend names keep the hash ring, and so every routing decision,
	// independent of the ports httptest picks.
	addrs := map[string]string{
		"leader:80":   tsLeader.Listener.Addr().String(),
		"follower:80": tsFollower.Listener.Addr().String(),
	}
	var dialer net.Dialer
	transport := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		target, ok := addrs[addr]
		if !ok {
			return nil, fmt.Errorf("no test backend at %s", addr)
		}
		return dialer.DialContext(ctx, network, target)
	}}
	t.Cleanup(transport.CloseIdleConnections)
	router, err := NewRouter(RouterConfig{
		Backends:    []string{"http://leader", "http://follower"},
		BackoffBase: -1,
		Seed:        1,
		Client:      &http.Client{Transport: transport, Timeout: 30 * time.Second},
		Tracer:      routerTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := router.Handler()

	// bodyOn returns the first predict body the ring places on backend url.
	bodyOn := func(url string) string {
		for seed := 1; ; seed++ {
			body := fmt.Sprintf(`{"app":"Spark-lr","seed":%d,"top":3}`, seed)
			kh := hash64([]byte(body))
			i := sort.Search(len(router.ring), func(i int) bool { return router.ring[i].h >= kh })
			if router.ring[i%len(router.ring)].b.url == url {
				return body
			}
		}
	}
	onLeader, onFollower := bodyOn("http://leader"), bodyOn("http://follower")
	route := func(body string, epoch uint64) {
		t.Helper()
		status, _, resp := postPredict(t, h, body)
		if status != http.StatusOK {
			t.Fatalf("route %s: status %d: %s", body, status, resp)
		}
		if want := fmt.Sprintf(`"epoch":%d,`, epoch); !bytes.Contains(resp, []byte(want)) {
			t.Fatalf("route %s: want %s in %s", body, want, resp)
		}
	}
	syncFollower := func(wantApplied int) {
		t.Helper()
		if n, err := follower.SyncOnce(); err != nil || n != wantApplied {
			t.Fatalf("sync: advanced %d (err %v), want %d", n, err, wantApplied)
		}
	}

	syncFollower(0) // caught up: an empty batch
	if healthy := router.ProbeAll(); healthy != 2 {
		t.Fatalf("%d healthy backends, want 2", healthy)
	}
	route(onLeader, 0)   // leader miss
	route(onLeader, 0)   // leader cache hit
	route(onFollower, 0) // follower miss

	if err := leaderSrv.Absorb(recs[0].Name, recs[0].LabelWeights, recs[0].PrunedVec); err != nil {
		t.Fatal(err)
	}
	syncFollower(1) // one frame
	for _, up := range []cloud.Update{testCatalogUpdate(), {Note: "reprice", Reprice: map[string]float64{"m5.xlarge": 0.2}}} {
		if err := leaderSrv.AbsorbCatalog(up); err != nil {
			t.Fatal(err)
		}
	}

	route(onLeader, 3) // raises the router's floor to 3
	// The follower last probed at epoch 0: the router skips it as stale and
	// the leader answers.
	route(onFollower, 3)
	if st := router.Stats(); st.StaleSkips != 1 {
		t.Fatalf("stale skips %d, want 1", st.StaleSkips)
	}
	syncFollower(2) // below the leader's horizon: bootstrap to epoch 3
	if healthy := router.ProbeAll(); healthy != 2 {
		t.Fatalf("%d healthy backends after bootstrap, want 2", healthy)
	}
	route(onFollower, 3) // follower miss at epoch 3
	// The follower dies: its request fails over to the leader's cache.
	tsFollower.Close()
	route(onFollower, 3)
	if st := router.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", st.Failovers)
	}
	if err := mgr.Checkpoint(leaderSrv.Snapshot()); err != nil {
		t.Fatal(err)
	}

	gateSrv := gateOverload(t, snaps[0], gateTr)

	checkTagged(t, leaderTr, leaderSrv.Stats(), mgr.Stats(), leader.LeaderStats())
	checkTagged(t, followerTr, followerSrv.Stats(), follower.Stats())
	checkTagged(t, routerTr, router.Stats())
	checkTagged(t, gateTr, gateSrv.Stats())
	for _, node := range []struct {
		name string
		tr   *obs.Tracer
	}{{"leader", leaderTr}, {"follower", followerTr}, {"router", routerTr}, {"gate", gateTr}} {
		var got bytes.Buffer
		if err := node.tr.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "servingtrace", node.name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s trace differs from its golden:\ngot:\n%s\nwant:\n%s", node.name, got.Bytes(), want)
		}
	}
}

// gateOverload drives a one-worker, one-slot server into overload: one
// request holds the worker inside its meter, a duplicate fills the queue, a
// best-effort request is shed and a premium one rejected; once released the
// duplicate answers from the cache. It returns the server for its stats.
func gateOverload(t *testing.T, snap *core.Snapshot, tr *obs.Tracer) *serve.Server {
	t.Helper()
	g := &traceGate{entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := serve.New(snap, serve.Config{
		Workers:       1,
		QueueSize:     1,
		ShedThreshold: 1,
		MeterFor:      g.meterFor,
		Tracer:        tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	t.Cleanup(g.open) // before Close drains (LIFO)

	req := serve.Request{App: "Spark-lr", Seed: 5, Top: 3}
	bodies := make(chan []byte, 2)
	predict := func() {
		go func() {
			body, err := srv.PredictBytes(context.Background(), req)
			if err != nil {
				t.Error(err)
			}
			bodies <- body
		}()
	}
	predict()
	<-g.entered
	predict()
	waitFor(t, 10*time.Second, func() bool { return srv.Stats().QueueDepth == 1 }, "the duplicate to queue")
	if _, err := srv.PredictBytes(context.Background(), serve.Request{App: "Spark-sort", Priority: 1}); !errors.Is(err, serve.ErrShed) {
		t.Fatalf("best-effort request: err %v, want ErrShed", err)
	}
	if _, err := srv.PredictBytes(context.Background(), serve.Request{App: "Spark-sort"}); !errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrShed) {
		t.Fatalf("premium request: err %v, want a queue-full reject", err)
	}
	g.open()
	if a, b := <-bodies, <-bodies; !bytes.Equal(a, b) {
		t.Fatal("the queued duplicate answered different bytes")
	}
	return srv
}

// traceGate holds the first metered request until open.
type traceGate struct {
	enterOnce, releaseOnce sync.Once
	entered, release       chan struct{}
}

func (g *traceGate) open() { g.releaseOnce.Do(func() { close(g.release) }) }

func (g *traceGate) wait() {
	g.enterOnce.Do(func() { close(g.entered) })
	<-g.release
}

func (g *traceGate) meterFor(seed uint64) oracle.Service {
	return &gatedMeter{Service: oracle.NewMeter(sim.New(sim.DefaultConfig()), seed), g: g}
}

type gatedMeter struct {
	oracle.Service
	g *traceGate
}

func (m *gatedMeter) TryProfile(app workload.App, vm cloud.VMType) (sim.Profile, error) {
	m.g.wait()
	return m.Service.TryProfile(app, vm)
}

func (m *gatedMeter) TryTime(app workload.App, vm cloud.VMType) (sim.Timing, error) {
	m.g.wait()
	return m.Service.TryTime(app, vm)
}

// checkTagged asserts that every `trace`-tagged field of the node's stats
// equals tr.Counter of its name (no two of a node's components share one).
func checkTagged(t *testing.T, tr *obs.Tracer, stats ...any) {
	t.Helper()
	for _, st := range stats {
		v := reflect.ValueOf(st)
		for i := 0; i < v.NumField(); i++ {
			tag, ok := v.Type().Field(i).Tag.Lookup("trace")
			if !ok {
				continue
			}
			name, _ := strings.CutSuffix(tag, ",max")
			if got, want := tr.Counter(name), v.Field(i).Int(); got != want {
				t.Errorf("%T.%s: trace %s = %d, stats %d", st, v.Type().Field(i).Name, name, got, want)
			}
		}
	}
}
