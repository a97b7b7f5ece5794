package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vesta/internal/obs"
	"vesta/internal/rng"
)

// RouterConfig tunes a Router. Zero values take the defaults noted per field.
type RouterConfig struct {
	// Backends are the follower base URLs traffic is hashed across
	// (required, at least one).
	Backends []string
	// Vnodes is how many ring points each backend owns; more points smooth
	// the hash distribution. Default 64.
	Vnodes int
	// Retries bounds how many additional backends a failed request fails
	// over to. Default 2 (three attempts total).
	Retries int
	// BackoffBase is the pre-retry delay before jitter; it doubles per
	// attempt up to BackoffMax. Defaults 25ms / 250ms. A negative base
	// skips the sleep entirely (tests).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter stream. The router is operational machinery —
	// schedule-dependent by nature — but a pinned seed makes its retry
	// delays reproducible under test. Default 1.
	Seed uint64
	// Client overrides the forwarding HTTP client; nil uses a 90-second
	// timeout (above the serve layer's 60-second request deadline).
	Client *http.Client
	// ProbeTimeout bounds one health probe. Default 5s.
	ProbeTimeout time.Duration
	// Tracer receives the routing counters (route.requests,
	// route.failovers, route.stale_skips, route.exhausted, route.probes),
	// read from the RouterStats fields tagged `trace` when the trace is
	// serialized.
	Tracer *obs.Tracer
	// Logf, when set, receives probe transition lines: a backend changing
	// health state, starting or resolving a staged rollout, plus its
	// replication counters (transient fetch failures, frames applied) as
	// reported on its /healthz. Steady states are not repeated.
	Logf func(format string, args ...any)
}

// backendState is one backend's health view, updated by probes and by
// forwarding outcomes.
type backendState struct {
	url     string
	healthy atomic.Bool
	// known flips on the first probe so the initial state is always logged.
	known atomic.Bool
	epoch atomic.Uint64
	// staged is the backend's advertised staged rollout version ("" none).
	staged atomic.Value
}

// BackendStatus is the exported per-backend health view.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Epoch   uint64 `json:"epoch"`
	// Staged is the rollout version the backend holds uncommitted, if any.
	Staged string `json:"staged,omitempty"`
}

// RouterStats is a point-in-time view of the router's counters. Fields
// tagged `trace` are the counters RouterConfig.Tracer serializes.
type RouterStats struct {
	Requests   int64           `json:"requests" trace:"route.requests"`
	Failovers  int64           `json:"failovers" trace:"route.failovers"`
	StaleSkips int64           `json:"stale_skips" trace:"route.stale_skips"`
	Exhausted  int64           `json:"exhausted" trace:"route.exhausted"`
	Probes     int64           `json:"probes" trace:"route.probes"`
	Floor      uint64          `json:"floor"`
	Backends   []BackendStatus `json:"backends"`
}

// ringPoint is one vnode on the consistent-hash ring.
type ringPoint struct {
	h uint64
	b *backendState
}

// Router consistent-hashes predict requests across healthy followers,
// probes their /healthz, and fails over with bounded retries and jittered
// backoff when a probe or request fails.
//
// Stale-read protection: the router tracks the highest snapshot epoch it has
// observed anywhere in the fleet (the floor, raised by probes and by predict
// responses). A backend whose last known epoch is below the floor is lagging
// and is skipped, so a failover can never hand a request to a follower that
// would answer from an older epoch than the fleet has already served — the
// router-level form of the follower token invariant.
type Router struct {
	cfg      RouterConfig
	client   *http.Client
	backends []*backendState
	ring     []ringPoint

	rngMu sync.Mutex
	jit   *rng.Source

	floor                                           atomic.Uint64
	requests, failovers, staleSkips, exhausted, prc atomic.Int64
}

// NewRouter builds a router over the backend URLs. Backends start unknown
// (unhealthy) until the first probe; call ProbeAll before serving.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("replicate: router needs at least one backend")
	}
	if cfg.Vnodes <= 0 {
		cfg.Vnodes = 64
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 250 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 5 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 90 * time.Second}
	}
	r := &Router{cfg: cfg, client: client, jit: rng.New(cfg.Seed)}
	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		url := strings.TrimRight(strings.TrimSpace(raw), "/")
		if url == "" || seen[url] {
			continue
		}
		seen[url] = true
		b := &backendState{url: url}
		r.backends = append(r.backends, b)
		for v := 0; v < cfg.Vnodes; v++ {
			r.ring = append(r.ring, ringPoint{h: hash64(fmt.Appendf(nil, "%s#%d", url, v)), b: b})
		}
	}
	if len(r.backends) == 0 {
		return nil, fmt.Errorf("replicate: router needs at least one backend")
	}
	sort.Slice(r.ring, func(i, j int) bool { return r.ring[i].h < r.ring[j].h })
	cfg.Tracer.Read(func() any { return r.Stats() })
	return r, nil
}

// hash64 places a key on the ring: FNV-1a over b, avalanched by mix64. It
// reads b in place, so hashing a request body copies nothing.
func hash64(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a 64-bit offset basis
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3 // FNV-1a 64-bit prime
	}
	return mix64(h)
}

// mix64 avalanches the FNV sum (splitmix64 finalizer). Raw FNV-1a only
// multiplies once per byte, so keys differing in a trailing byte — predict
// bodies that differ in one digit — land within a narrow band of the ring
// and would all hash to the same backend.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// raiseFloor lifts the observed-epoch floor monotonically.
func (r *Router) raiseFloor(epoch uint64) {
	for {
		cur := r.floor.Load()
		if epoch <= cur || r.floor.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// Floor returns the highest epoch the router has observed in the fleet.
func (r *Router) Floor() uint64 { return r.floor.Load() }

// noteProbe records one probe outcome and logs the line when something
// changed: the first probe ever, a health transition, or a staged-version
// change. detail rides on the logged line only.
func (r *Router) noteProbe(b *backendState, healthy bool, staged, detail string) {
	prevHealthy := b.healthy.Load()
	first := !b.known.Swap(true)
	prevStaged, _ := b.staged.Swap(staged).(string)
	b.healthy.Store(healthy)
	if r.cfg.Logf != nil && (first || prevHealthy != healthy || prevStaged != staged) {
		r.cfg.Logf("route: probe %s healthy=%v%s", b.url, healthy, detail)
	}
}

// Probe health-checks one backend: a 200 /healthz marks it healthy and
// records its epoch (raising the floor); anything else marks it unhealthy.
// Probe transitions go to RouterConfig.Logf along with the backend's staged
// rollout version and replication counters.
func (r *Router) Probe(b *backendState) bool {
	r.prc.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		r.noteProbe(b, false, "", fmt.Sprintf(": %v", err))
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.noteProbe(b, false, "", fmt.Sprintf(": %v", err))
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		r.noteProbe(b, false, "", fmt.Sprintf(": status %d", resp.StatusCode))
		return false
	}
	var h struct {
		Epoch         uint64          `json:"epoch"`
		StagedVersion string          `json:"staged_version"`
		Replication   json.RawMessage `json:"replication"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		r.noteProbe(b, false, "", fmt.Sprintf(": bad healthz body: %v", err))
		return false
	}
	b.epoch.Store(h.Epoch)
	r.raiseFloor(h.Epoch)
	detail := fmt.Sprintf(" epoch=%d", h.Epoch)
	if h.StagedVersion != "" {
		detail += " staged=" + h.StagedVersion
	}
	if len(h.Replication) > 0 {
		detail += " replication=" + string(h.Replication)
	}
	r.noteProbe(b, true, h.StagedVersion, detail)
	return true
}

// ProbeAll probes every backend and returns how many are healthy.
func (r *Router) ProbeAll() int {
	healthy := 0
	for _, b := range r.backends {
		if r.Probe(b) {
			healthy++
		}
	}
	return healthy
}

// Run probes the fleet every interval until ctx is done.
func (r *Router) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			r.ProbeAll()
		}
	}
}

// pick walks the ring clockwise from the key's hash and returns the first
// backend that is healthy, not lagging below the floor, and not already
// tried. Nil when no backend qualifies.
func (r *Router) pick(keyHash uint64, tried map[*backendState]bool) *backendState {
	if len(r.ring) == 0 {
		return nil
	}
	start := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].h >= keyHash })
	floor := r.floor.Load()
	for i := 0; i < len(r.ring); i++ {
		p := r.ring[(start+i)%len(r.ring)]
		if tried[p.b] || !p.b.healthy.Load() {
			continue
		}
		if p.b.epoch.Load() < floor {
			r.staleSkips.Add(1)
			tried[p.b] = true // lagging: skip for this request
			continue
		}
		return p.b
	}
	return nil
}

// backoff sleeps the jittered delay for a retry attempt, honouring ctx.
func (r *Router) backoff(ctx context.Context, attempt int) {
	if r.cfg.BackoffBase <= 0 {
		return
	}
	d := r.cfg.BackoffBase << uint(attempt)
	if d > r.cfg.BackoffMax {
		d = r.cfg.BackoffMax
	}
	// Full jitter in [d/2, d): desynchronizes a thundering herd of retries
	// without ever waiting longer than the deterministic cap.
	r.rngMu.Lock()
	jittered := d/2 + time.Duration(r.jit.Intn(int(d/2)+1))
	r.rngMu.Unlock()
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Stats returns the router's counters and per-backend health.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Requests:   r.requests.Load(),
		Failovers:  r.failovers.Load(),
		StaleSkips: r.staleSkips.Load(),
		Exhausted:  r.exhausted.Load(),
		Probes:     r.prc.Load(),
		Floor:      r.floor.Load(),
	}
	for _, b := range r.backends {
		staged, _ := b.staged.Load().(string)
		st.Backends = append(st.Backends, BackendStatus{
			URL: b.url, Healthy: b.healthy.Load(), Epoch: b.epoch.Load(), Staged: staged,
		})
	}
	return st
}

// maxRouteBody bounds a routed predict body, mirroring the serve layer.
const maxRouteBody = 1 << 20

// Handler returns the router's HTTP surface:
//
//	POST /predict  forwarded to a consistent-hash-chosen healthy follower
//	GET  /healthz  router liveness plus fleet health summary
//	GET  /stats    routing counters and per-backend status
//
// A forwarded request that fails (connection error or 5xx) marks the backend
// unhealthy and fails over to the next ring candidate after a jittered
// backoff, up to Retries extra attempts; when every candidate is exhausted
// the router answers 502 with a Retry-After hint. Responses whose snapshot
// epoch is below the observed fleet floor are treated as stale reads and
// failed over the same way.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", r.predict)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		st := r.Stats()
		healthy := 0
		for _, b := range st.Backends {
			if b.Healthy {
				healthy++
			}
		}
		status := "ok"
		code := http.StatusOK
		if healthy == 0 {
			status = "no_backends"
			code = http.StatusServiceUnavailable
		}
		writeJSONStatus(w, code, map[string]any{
			"status":   status,
			"healthy":  healthy,
			"backends": len(st.Backends),
			"floor":    st.Floor,
		})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSONStatus(w, http.StatusOK, r.Stats())
	})
	return mux
}

func (r *Router) predict(w http.ResponseWriter, req *http.Request) {
	r.requests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxRouteBody))
	if err != nil {
		writeJSONStatus(w, http.StatusBadRequest, errorBody{Error: "unreadable body: " + err.Error(), Code: "bad_request"})
		return
	}
	// The routing key is the raw body: byte-identical requests always hash
	// to the same follower, so per-key response caches stay hot across the
	// fleet instead of spraying every key everywhere.
	keyHash := hash64(body)
	tried := map[*backendState]bool{}
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		b := r.pick(keyHash, tried)
		if b == nil {
			break
		}
		status, ctype, respBody, err := r.forward(req.Context(), b, body)
		if err != nil && req.Context().Err() != nil {
			// The client gave up: the failure says nothing about the
			// backend, and a retry would fail the same way on the next one.
			return
		}
		if err != nil || status >= http.StatusInternalServerError {
			// Connection failure or backend-side failure: the prober will
			// readmit the backend when it recovers.
			b.healthy.Store(false)
			tried[b] = true
			r.failovers.Add(1)
			r.backoff(req.Context(), attempt)
			continue
		}
		if status == http.StatusOK {
			var tok struct {
				Epoch uint64 `json:"epoch"`
			}
			if json.Unmarshal(respBody, &tok) == nil {
				floorBefore := r.floor.Load()
				if tok.Epoch < floorBefore {
					// Stale read: the fleet has served a newer epoch than
					// this follower's answer. Record its lag and fail over.
					b.epoch.Store(tok.Epoch)
					tried[b] = true
					r.staleSkips.Add(1)
					r.failovers.Add(1)
					r.backoff(req.Context(), attempt)
					continue
				}
				b.epoch.Store(tok.Epoch)
				r.raiseFloor(tok.Epoch)
			}
		}
		// 2xx/4xx pass through untouched: client errors are the client's.
		if ctype != "" {
			w.Header().Set("Content-Type", ctype)
		}
		w.WriteHeader(status)
		w.Write(respBody)
		return
	}
	r.exhausted.Add(1)
	w.Header().Set("Retry-After", "1")
	writeJSONStatus(w, http.StatusBadGateway, errorBody{
		Error: "no healthy backend at or above the fleet epoch floor", Code: "unavailable",
	})
}

// forward ships one predict body to a backend and returns its answer.
func (r *Router) forward(ctx context.Context, b *backendState, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/predict", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), respBody, nil
}
