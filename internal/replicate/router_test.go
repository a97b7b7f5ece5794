package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vesta/internal/serve"
)

// postPredict sends one predict body through the router handler.
func postPredict(t testing.TB, h http.Handler, body string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Result().Header, rec.Body.Bytes()
}

// fakeBackend is a scriptable backend: healthz reports the configured epoch,
// predict replies with a distinguishable body (or a 500 while failing).
type fakeBackend struct {
	who     string
	epoch   atomic.Uint64
	failing atomic.Bool
	hits    atomic.Int64
}

func (b *fakeBackend) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","epoch":%d}`, b.epoch.Load())
	})
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		b.hits.Add(1)
		if b.failing.Load() {
			http.Error(w, `{"error":"boom","code":"internal"}`, http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, `{"epoch":%d,"who":%q}`, b.epoch.Load(), b.who)
	})
	return mux
}

// newTestRouter builds a router over the URLs with deterministic, sleep-free
// retries (negative backoff base skips the jitter sleep entirely).
func newTestRouter(t testing.TB, urls ...string) *Router {
	t.Helper()
	r, err := NewRouter(RouterConfig{Backends: urls, BackoffBase: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouterValidation(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Fatal("empty backend list accepted")
	}
	if _, err := NewRouter(RouterConfig{Backends: []string{" ", ""}}); err == nil {
		t.Fatal("blank backend list accepted")
	}
}

func TestRouterConsistentHashing(t *testing.T) {
	a, b := &fakeBackend{who: "a"}, &fakeBackend{who: "b"}
	a.epoch.Store(3)
	b.epoch.Store(3)
	tsA := httptest.NewServer(a.handler())
	tsB := httptest.NewServer(b.handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	r := newTestRouter(t, tsA.URL, tsB.URL)
	if healthy := r.ProbeAll(); healthy != 2 {
		t.Fatalf("%d healthy, want 2", healthy)
	}
	h := r.Handler()

	// The same body always lands on the same backend; distinct bodies spread
	// across both. Ring balance depends on the (random) httptest ports, so
	// keep drawing keys until both backends have been seen.
	seenWho := map[string]bool{}
	for seed := 0; seed < 64 && len(seenWho) < 2; seed++ {
		body := fmt.Sprintf(`{"app":"Spark-kmeans","seed":%d}`, seed+1)
		var first []byte
		for rep := 0; rep < 3; rep++ {
			status, _, resp := postPredict(t, h, body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, resp)
			}
			if rep == 0 {
				first = resp
				var parsed struct {
					Who string `json:"who"`
				}
				if err := json.Unmarshal(resp, &parsed); err != nil {
					t.Fatal(err)
				}
				seenWho[parsed.Who] = true
			} else if !bytes.Equal(resp, first) {
				t.Fatalf("same key routed differently: %s vs %s", resp, first)
			}
		}
	}
	if len(seenWho) != 2 {
		t.Fatalf("64 distinct keys all hashed to one backend: %v", seenWho)
	}
}

func TestRouterFailoverOnBackendFailure(t *testing.T) {
	a, b := &fakeBackend{who: "a"}, &fakeBackend{who: "b"}
	a.epoch.Store(3)
	b.epoch.Store(3)
	b.failing.Store(true)
	tsA := httptest.NewServer(a.handler())
	tsB := httptest.NewServer(b.handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	r := newTestRouter(t, tsA.URL, tsB.URL)
	r.ProbeAll()
	h := r.Handler()

	// Every request answers 200 from the healthy backend, whichever backend
	// its key hashes to; b's 500s are failed over, and b is marked unhealthy
	// the first time it fails.
	for seed := 0; seed < 8; seed++ {
		status, _, resp := postPredict(t, h, fmt.Sprintf(`{"app":"x","seed":%d}`, seed+1))
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, status, resp)
		}
		if !bytes.Contains(resp, []byte(`"who":"a"`)) {
			t.Fatalf("seed %d: answered by the failing backend: %s", seed, resp)
		}
	}
	st := r.Stats()
	if b.hits.Load() > 0 && st.Failovers == 0 {
		t.Fatalf("b served %d requests but no failovers recorded: %+v", b.hits.Load(), st)
	}
	// The prober readmits b once it recovers.
	b.failing.Store(false)
	r.ProbeAll()
	for _, bs := range r.Stats().Backends {
		if !bs.Healthy {
			t.Fatalf("recovered backend still unhealthy: %+v", bs)
		}
	}
}

func TestRouterDeadBackendFailover(t *testing.T) {
	a, b := &fakeBackend{who: "a"}, &fakeBackend{who: "b"}
	a.epoch.Store(1)
	b.epoch.Store(1)
	tsA := httptest.NewServer(a.handler())
	tsB := httptest.NewServer(b.handler())
	t.Cleanup(tsA.Close)
	r := newTestRouter(t, tsA.URL, tsB.URL)
	r.ProbeAll()
	tsB.Close() // dies after the probe marked it healthy

	h := r.Handler()
	for seed := 0; seed < 8; seed++ {
		status, _, resp := postPredict(t, h, fmt.Sprintf(`{"app":"x","seed":%d}`, seed+1))
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, status, resp)
		}
		if !bytes.Contains(resp, []byte(`"who":"a"`)) {
			t.Fatalf("seed %d: %s", seed, resp)
		}
	}
}

func TestRouterNeverServesStaleEpoch(t *testing.T) {
	fresh, stale := &fakeBackend{who: "fresh"}, &fakeBackend{who: "stale"}
	fresh.epoch.Store(3)
	stale.epoch.Store(1) // lagging follower
	tsFresh := httptest.NewServer(fresh.handler())
	tsStale := httptest.NewServer(stale.handler())
	t.Cleanup(tsFresh.Close)
	t.Cleanup(tsStale.Close)
	r := newTestRouter(t, tsFresh.URL, tsStale.URL)
	r.ProbeAll()
	if r.Floor() != 3 {
		t.Fatalf("floor %d, want 3", r.Floor())
	}
	h := r.Handler()

	// While both are healthy, every response carries the floor epoch: the
	// lagging follower is skipped, never served from.
	for seed := 0; seed < 8; seed++ {
		status, _, resp := postPredict(t, h, fmt.Sprintf(`{"app":"x","seed":%d}`, seed+1))
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, status, resp)
		}
		var parsed struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(resp, &parsed); err != nil {
			t.Fatal(err)
		}
		if parsed.Epoch != 3 {
			t.Fatalf("stale epoch %d served: %s", parsed.Epoch, resp)
		}
	}

	// The fresh follower dies. Failover must NOT regress to the stale one:
	// unavailability (502 + Retry-After) beats serving epoch 1 after epoch 3
	// has been revealed.
	tsFresh.Close()
	for seed := 0; seed < 4; seed++ {
		status, header, resp := postPredict(t, h, fmt.Sprintf(`{"app":"x","seed":%d}`, seed+1))
		if status != http.StatusBadGateway {
			t.Fatalf("seed %d after failover: status %d: %s", seed, status, resp)
		}
		if header.Get("Retry-After") == "" {
			t.Fatal("502 without Retry-After hint")
		}
	}
	if stale.hits.Load() != 0 {
		t.Fatalf("stale backend served %d predict requests", stale.hits.Load())
	}

	// The stale follower catches up; the fleet serves again at the floor.
	stale.epoch.Store(3)
	r.ProbeAll()
	status, _, resp := postPredict(t, h, `{"app":"x","seed":1}`)
	if status != http.StatusOK || !bytes.Contains(resp, []byte(`"who":"stale"`)) {
		t.Fatalf("caught-up follower not served: status %d: %s", status, resp)
	}
}

func TestRouterRejectsStaleResponse(t *testing.T) {
	// A backend that probes fresh but answers with an older epoch (it rolled
	// back between probe and request) must be failed over, not passed through.
	liar := &fakeBackend{who: "liar"}
	liar.epoch.Store(5)
	honest := &fakeBackend{who: "honest"}
	honest.epoch.Store(5)
	liarMux := http.NewServeMux()
	liarMux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok","epoch":5}`)
	})
	liarMux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		liar.hits.Add(1)
		fmt.Fprint(w, `{"epoch":2,"who":"liar"}`)
	})
	tsLiar := httptest.NewServer(liarMux)
	tsHonest := httptest.NewServer(honest.handler())
	t.Cleanup(tsLiar.Close)
	t.Cleanup(tsHonest.Close)
	r := newTestRouter(t, tsLiar.URL, tsHonest.URL)
	r.ProbeAll()
	h := r.Handler()
	for seed := 0; seed < 8; seed++ {
		status, _, resp := postPredict(t, h, fmt.Sprintf(`{"app":"x","seed":%d}`, seed+1))
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, status, resp)
		}
		if !bytes.Contains(resp, []byte(`"who":"honest"`)) {
			t.Fatalf("seed %d: stale response passed through: %s", seed, resp)
		}
	}
	if liar.hits.Load() > 0 && r.Stats().StaleSkips == 0 {
		t.Fatal("stale responses not counted")
	}
}

func TestRouterClientCancelKeepsBackendsHealthy(t *testing.T) {
	// A client that gives up mid-request fails the forward with its own
	// canceled context. That says nothing about the backend: no backend may
	// be ejected, no failover counted, and the next request must succeed.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	slow := func(who string) http.Handler {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"status":"ok","epoch":1}`)
		})
		mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
			select {
			case entered <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
			fmt.Fprintf(w, `{"epoch":1,"who":%q}`, who)
		})
		return mux
	}
	tsA := httptest.NewServer(slow("a"))
	tsB := httptest.NewServer(slow("b"))
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(open) // LIFO: unblock handlers before the servers close
	r := newTestRouter(t, tsA.URL, tsB.URL)
	if healthy := r.ProbeAll(); healthy != 2 {
		t.Fatalf("healthy = %d, want 2", healthy)
	}
	h := r.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"app":"x"}`)).WithContext(ctx)
	served := make(chan struct{})
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), req)
		close(served)
	}()
	<-entered
	cancel()
	<-served

	st := r.Stats()
	for _, b := range st.Backends {
		if !b.Healthy {
			t.Fatalf("backend %s ejected by a client cancel: %+v", b.URL, st)
		}
	}
	if st.Failovers != 0 || st.Exhausted != 0 {
		t.Fatalf("client cancel counted as backend failure: %+v", st)
	}
	open()
	if status, _, resp := postPredict(t, h, `{"app":"x"}`); status != http.StatusOK {
		t.Fatalf("next request: status %d: %s", status, resp)
	}
}

func TestRouterHealthzAndStats(t *testing.T) {
	a := &fakeBackend{who: "a"}
	a.epoch.Store(2)
	tsA := httptest.NewServer(a.handler())
	t.Cleanup(tsA.Close)
	r := newTestRouter(t, tsA.URL, "http://127.0.0.1:1") // second backend unreachable
	r.ProbeAll()
	h := r.Handler()

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz %d: %s", rec.Code, rec.Body)
	}
	var health struct {
		Status   string `json:"status"`
		Healthy  int    `json:"healthy"`
		Backends int    `json:"backends"`
		Floor    uint64 `json:"floor"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Healthy != 1 || health.Backends != 2 || health.Floor != 2 {
		t.Fatalf("health: %+v", health)
	}

	req = httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st RouterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Probes != 2 || len(st.Backends) != 2 {
		t.Fatalf("stats: %+v", st)
	}

	// Every backend down: healthz degrades to 503.
	tsA.Close()
	r.ProbeAll()
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead-fleet healthz %d", rec.Code)
	}
}

// TestRouterOverRealFleet routes over two real serve.Servers and checks the
// routed bytes are exactly the bytes the backend would serve directly — the
// router is a pure forwarder on the success path.
func TestRouterOverRealFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("offline training fixture is expensive")
	}
	snaps, _ := fixture(t)
	srvA := newReplica(t, snaps[3], 1)
	srvB := newReplica(t, snaps[3], 4)
	tsA := httptest.NewServer(srvA.Handler())
	tsB := httptest.NewServer(srvB.Handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	r := newTestRouter(t, tsA.URL, tsB.URL)
	if healthy := r.ProbeAll(); healthy != 2 {
		t.Fatalf("%d healthy, want 2", healthy)
	}
	if r.Floor() != 3 {
		t.Fatalf("floor %d, want 3", r.Floor())
	}
	h := r.Handler()

	body := `{"app":"Spark-kmeans","seed":7,"top":5}`
	status, _, routed := postPredict(t, h, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, routed)
	}
	direct, err := srvA.PredictBytes(context.Background(), serve.Request{App: "Spark-kmeans", Seed: 7, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(routed, direct) {
		t.Fatalf("routed bytes differ from direct serving:\n%s\nvs\n%s", routed, direct)
	}

	// Client errors pass through untouched.
	status, _, resp := postPredict(t, h, `{"app":"no-such-app"}`)
	if status != http.StatusNotFound {
		t.Fatalf("unknown app through router: %d %s", status, resp)
	}
}
