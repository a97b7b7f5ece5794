package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/replicate"
	"vesta/internal/sim"
	"vesta/internal/wal"
	"vesta/internal/workload"
)

// spanHeader carries "<arrival>.<parent span id>" across the HTTP hops of a
// traced request: client → router → node. The router forwards only the body,
// so its outbound hop picks the pair up from the request context instead
// (see propagator).
const spanHeader = "X-Perf-Span"

// span is one timed interval at a layer boundary, recorded from this
// package's own wrappers around each layer's public seam. Spans of one
// arrival share its id; Parent is the span that caused this one (0: root).
type span struct {
	ID      int64
	Parent  int64
	Arrival int
	Name    string
	Start   time.Duration // since the tracer's origin
	End     time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory for one traced window; they are analysed
// in place and written out when the benchmark ends. An untraced fleet has a
// nil tracer: its wrapHandler and wrapRouter return the handler unwrapped and
// no other decorator is installed, so the fleet runs the deployment exactly
// as the CLI builds it.
type tracer struct {
	origin time.Time
	on     atomic.Bool // false during warm-up: only the timed window is traced
	ids    atomic.Int64

	mu    sync.Mutex
	spans []span
	// open is the innermost open span of each write arrival on the leader:
	// handler → outer (replication) WAL call → inner (durable) WAL call all
	// run on the handler's goroutine, so a per-arrival stack links them.
	open map[int]int64
	// epochArrival maps an appended epoch to its arrival, so the Committed
	// call that follows (which carries only the snapshot) finds its parent.
	epochArrival map[uint64]int
	// appended is when the outer WAL call returned for each epoch not yet
	// seen applied by the follower: the start of append→applied lag.
	appended map[uint64]time.Time
	lags     []float64 // ms
	applies  []float64 // ms
	// inflight holds the in-process predicts of the window by cache key,
	// oldest first, so a meter can attribute its profiles to the request
	// that owns the computation.
	inflight map[string][]*call
}

func newTracer() *tracer {
	return &tracer{
		origin:       time.Now(),
		open:         map[int]int64{},
		epochArrival: map[uint64]int{},
		appended:     map[uint64]time.Time{},
		inflight:     map[string][]*call{},
	}
}

func (t *tracer) id() int64 { return t.ids.Add(1) }

func (t *tracer) add(name string, arrival int, id, parent int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Arrival: arrival, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin),
	})
	t.mu.Unlock()
}

// header renders the propagation value for a child of span parent.
func header(arrival int, parent int64) string {
	return strconv.Itoa(arrival) + "." + strconv.FormatInt(parent, 10)
}

func parseHeader(v string) (arrival int, parent int64, ok bool) {
	a, p, found := strings.Cut(v, ".")
	if !found {
		return 0, 0, false
	}
	ai, err1 := strconv.Atoi(a)
	pi, err2 := strconv.ParseInt(p, 10, 64)
	return ai, pi, err1 == nil && err2 == nil
}

// wrapHandler times a node's Server.Handler(): one span per traced request,
// named after the endpoint (http.predict, http.absorb, http.catalog).
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrival, parent, ok := parseHeader(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, start := t.id(), time.Now()
		prev := t.push(arrival, id)
		h.ServeHTTP(w, r)
		t.pop(arrival, prev)
		t.add("http"+strings.ReplaceAll(r.URL.Path, "/", "."), arrival, id, parent, start, time.Now())
	})
}

// spanRef is the (arrival, span) pair a traced router request carries in
// its context to the outbound hop.
type spanRef struct {
	arrival int
	id      int64
}

type spanRefKey struct{}

// wrapRouter times Router.Handler() and hands its span to the forwarding
// client through the request context.
func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrival, parent, ok := parseHeader(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, start := t.id(), time.Now()
		ctx := context.WithValue(r.Context(), spanRefKey{}, spanRef{arrival, id})
		h.ServeHTTP(w, r.WithContext(ctx))
		t.add("router", arrival, id, parent, start, time.Now())
	})
}

// propagatingClient is the router's forwarding client in a traced fleet:
// the default one (90 s timeout) with the span header added to each hop.
func propagatingClient() *http.Client {
	return &http.Client{Timeout: 90 * time.Second, Transport: propagator{http.DefaultTransport}}
}

// propagator copies the router span of the inbound request onto the
// outbound hop, so the node's handler span names its parent.
type propagator struct{ base http.RoundTripper }

func (p propagator) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(spanRefKey{}).(spanRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, header(ref.arrival, ref.id))
	}
	return p.base.RoundTrip(req)
}

// push makes id the innermost open span of arrival and returns the previous
// one (its parent); pop restores it.
func (t *tracer) push(arrival int, id int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := t.open[arrival]
	t.open[arrival] = id
	return prev
}

func (t *tracer) pop(arrival int, prev int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev == 0 {
		delete(t.open, arrival)
	} else {
		t.open[arrival] = prev
	}
}

// writeArrival recovers the arrival of a traced write from the name (absorb)
// or note (catalog update) the harness gave it; warm-up writes carry none.
func writeArrival(label string) (int, bool) {
	rest, ok := strings.CutPrefix(label, writePrefix)
	if !ok {
		return 0, false
	}
	a, err := strconv.Atoi(rest)
	return a, err == nil
}

// timeWrite runs one WAL call as a span of the write arrival named by label,
// nested under whatever span of that arrival is open.
func (t *tracer) timeWrite(name, label string, fn func() error) error {
	arrival, ok := writeArrival(label)
	if !ok || !t.on.Load() {
		return fn()
	}
	id, start := t.id(), time.Now()
	parent := t.push(arrival, id)
	err := fn()
	t.pop(arrival, parent)
	t.add(name, arrival, id, parent, start, time.Now())
	return err
}

// noteAppend records the return of the outer WAL call for epoch: the start
// of that epoch's append→applied lag.
func (t *tracer) noteAppend(label string, epoch uint64) {
	arrival, ok := writeArrival(label)
	if !ok || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.appended[epoch] = time.Now()
	t.epochArrival[epoch] = arrival
	t.mu.Unlock()
}

func (t *tracer) committedLabel(snap *core.Snapshot) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a, ok := t.epochArrival[snap.Epoch()]; ok {
		return writePrefix + strconv.Itoa(a)
	}
	return ""
}

// timedWAL decorates the durable wal.Manager the leader writes through: the
// inner WAL call (append + fsync, compaction on Committed).
type timedWAL struct {
	*wal.Manager
	tr *tracer
}

func (w *timedWAL) Append(name string, labelWeights, prunedVec []float64, epoch uint64) error {
	return w.tr.timeWrite("wal.append", name, func() error {
		return w.Manager.Append(name, labelWeights, prunedVec, epoch)
	})
}

func (w *timedWAL) AppendCatalog(up cloud.Update, epoch uint64) error {
	return w.tr.timeWrite("wal.append", up.Note, func() error {
		return w.Manager.AppendCatalog(up, epoch)
	})
}

func (w *timedWAL) Committed(snap *core.Snapshot) error {
	return w.tr.timeWrite("wal.committed", w.tr.committedLabel(snap), func() error {
		return w.Manager.Committed(snap)
	})
}

// timedLeader decorates the replication leader the serve layer writes
// through (the outer WAL call): its self time is the shipping overhead.
type timedLeader struct {
	*replicate.Leader
	tr *tracer
}

func (l *timedLeader) Append(name string, labelWeights, prunedVec []float64, epoch uint64) error {
	err := l.tr.timeWrite("leader.append", name, func() error {
		return l.Leader.Append(name, labelWeights, prunedVec, epoch)
	})
	if err == nil {
		l.tr.noteAppend(name, epoch)
	}
	return err
}

func (l *timedLeader) AppendCatalog(up cloud.Update, epoch uint64) error {
	err := l.tr.timeWrite("leader.append", up.Note, func() error {
		return l.Leader.AppendCatalog(up, epoch)
	})
	if err == nil {
		l.tr.noteAppend(up.Note, epoch)
	}
	return err
}

func (l *timedLeader) Committed(snap *core.Snapshot) error {
	return l.tr.timeWrite("leader.committed", l.tr.committedLabel(snap), func() error {
		return l.Leader.Committed(snap)
	})
}

// lagTransport decorates the follower's HTTP transport. RunWait chains a
// productive round straight into the next long poll, so the next FetchWait
// call after a batch marks the moment that batch is applied: it ends the
// apply span and the append→applied lag of every epoch up to its token.
type lagTransport struct {
	inner *replicate.HTTPTransport
	tr    *tracer

	// received is when the last non-empty batch arrived, zero once applied.
	// Only the follower's sync goroutine calls FetchWait, so it needs no lock.
	received time.Time
}

func (l *lagTransport) Fetch(from uint64) (*replicate.Batch, error) {
	return l.inner.Fetch(from)
}

func (l *lagTransport) FetchWait(ctx context.Context, from uint64, wait time.Duration) (*replicate.Batch, error) {
	now := time.Now()
	t := l.tr
	t.mu.Lock()
	if !l.received.IsZero() {
		t.applies = append(t.applies, ms(now.Sub(l.received)))
		l.received = time.Time{}
	}
	for e, at := range t.appended {
		if e <= from {
			t.lags = append(t.lags, ms(now.Sub(at)))
			delete(t.appended, e)
		}
	}
	t.mu.Unlock()
	b, err := l.inner.FetchWait(ctx, from, wait)
	if err == nil && t.on.Load() && (len(b.Frames) > 0 || len(b.Snapshot) > 0) {
		l.received = time.Now()
	}
	return b, err
}

// call is one traced in-process predict, registered for the meter to claim.
type call struct {
	arrival int
	key     string
	root    int64 // serve.predict span
	compute int64 // core.compute span, allocated when a meter claims the call
	start   time.Time
	first   time.Time // first TryProfile: the end of admission and queue wait
	claimed bool
}

func callKey(app string, seed uint64) string { return app + "\x00" + strconv.FormatUint(seed, 10) }

// begin registers an in-process predict before it calls PredictBytes.
func (t *tracer) begin(arrival int, app string, seed uint64) *call {
	c := &call{arrival: arrival, key: callKey(app, seed), root: t.id(), start: time.Now()}
	t.mu.Lock()
	t.inflight[c.key] = append(t.inflight[c.key], c)
	t.mu.Unlock()
	return c
}

// claim hands a meter the oldest unclaimed in-flight predict of its key:
// the request whose computation the meter is measuring.
func (t *tracer) claim(app string, seed uint64) *call {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.inflight[callKey(app, seed)] {
		if !c.claimed {
			c.claimed, c.first, c.compute = true, now, t.id()
			return c
		}
	}
	return nil
}

// finish records the spans of a completed in-process predict: serve.predict
// for the whole call and, when its computation was measured, serve.wait
// (admission, queue and dispatch) and core.compute (profiling, the CMF
// solve, ranking and encoding; the core.measure spans are its children).
func (t *tracer) finish(c *call, end time.Time) {
	t.mu.Lock()
	list := t.inflight[c.key]
	for i, o := range list {
		if o == c {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(t.inflight, c.key)
	} else {
		t.inflight[c.key] = list
	}
	claimed, first, compute := c.claimed, c.first, c.compute
	t.mu.Unlock()
	t.add("serve.predict", c.arrival, c.root, 0, c.start, end)
	if claimed {
		t.add("serve.wait", c.arrival, t.id(), c.root, c.start, first)
		t.add("core.compute", c.arrival, compute, c.root, first, end)
	}
}

// meterFor is the Config.MeterFor of a traced leader: oracle.NewMeter over
// one shared simulator, as serve builds it, with each profile timed. A custom
// meter is never memoized, which is why the untraced run must show a profile
// hit rate near zero on the workloads that use it.
func (t *tracer) meterFor(s *sim.Simulator) func(seed uint64) oracle.Service {
	return func(seed uint64) oracle.Service {
		return &timedMeter{Service: oracle.NewMeter(s, seed), tr: t, seed: seed}
	}
}

type timedMeter struct {
	oracle.Service
	tr   *tracer
	seed uint64

	mu    sync.Mutex
	bound bool
	c     *call
}

func (m *timedMeter) TryProfile(app workload.App, vm cloud.VMType) (sim.Profile, error) {
	m.mu.Lock()
	if !m.bound {
		m.bound = true
		m.c = m.tr.claim(app.Name, m.seed)
	}
	c := m.c
	m.mu.Unlock()
	start := time.Now()
	p, err := m.Service.TryProfile(app, vm)
	if c != nil {
		m.tr.add("core.measure", c.arrival, m.tr.id(), c.compute, start, time.Now())
	}
	return p, err
}

// spanRecord is the JSONL form of a span.
type spanRecord struct {
	Workload string  `json:"workload"`
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent"`
	Arrival  int     `json:"arrival"`
	Name     string  `json:"name"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

// writeSpans writes every span of the traced windows, one JSON object per
// line, with times in microseconds since each window's tracer origin.
func writeSpans(path string, traced []tracedWindow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, tw := range traced {
		for _, s := range tw.tr.spans {
			rec := spanRecord{
				Workload: tw.workload, ID: s.ID, Parent: s.Parent, Arrival: s.Arrival, Name: s.Name,
				StartUS: float64(s.Start) / 1e3, EndUS: float64(s.End) / 1e3,
			}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedWindow pairs a workload with the tracer of its traced window.
type tracedWindow struct {
	workload string
	tr       *tracer
}

// layerTimes derives the span-based per-layer metrics of a traced window.
// A layer's self time is its span minus the time its child spans cover.
func (t *tracer) layerTimes() map[string]float64 {
	children := map[int64]time.Duration{}
	measures := map[int64]int{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
			if s.Name == "core.measure" {
				measures[s.Parent]++
			}
		}
	}
	by := map[string][]float64{}
	self := func(s span) time.Duration { return s.dur() - children[s.ID] }
	for _, s := range t.spans {
		switch s.Name {
		case "router":
			by["router.self"] = append(by["router.self"], us(self(s)))
		case "http.predict":
			by["http.handler"] = append(by["http.handler"], us(s.dur()))
		case "client.predict":
			by["client.self"] = append(by["client.self"], us(self(s)))
		case "serve.wait":
			by["wait"] = append(by["wait"], ms(s.dur()))
		case "core.compute":
			by["measure"] = append(by["measure"], ms(children[s.ID]))
			by["solve"] = append(by["solve"], ms(self(s)))
			by["profiles"] = append(by["profiles"], float64(measures[s.ID]))
		case "wal.append", "wal.committed":
			by[s.Name] = append(by[s.Name], ms(s.dur()))
		case "leader.append":
			by["ship"] = append(by["ship"], us(self(s)))
		case "http.absorb", "http.catalog":
			by[s.Name] = append(by[s.Name], ms(self(s)))
		}
	}
	return map[string]float64{
		"router.self_p50_us":           percentile(by["router.self"], 0.5),
		"router.self_p99_us":           percentile(by["router.self"], 0.99),
		"http.handler_p50_us":          percentile(by["http.handler"], 0.5),
		"http.handler_p99_us":          percentile(by["http.handler"], 0.99),
		"net.client_self_p50_us":       percentile(by["client.self"], 0.5),
		"serve.wait_p50_ms":            percentile(by["wait"], 0.5),
		"serve.wait_p99_ms":            percentile(by["wait"], 0.99),
		"core.measure_p50_ms":          percentile(by["measure"], 0.5),
		"core.solve_p50_ms":            percentile(by["solve"], 0.5),
		"core.profiles_per_req":        mean(by["profiles"]),
		"wal.append_p50_ms":            percentile(by["wal.append"], 0.5),
		"wal.append_p90_ms":            percentile(by["wal.append"], 0.9),
		"wal.committed_p90_ms":         percentile(by["wal.committed"], 0.9),
		"replicate.ship_p50_us":        percentile(by["ship"], 0.5),
		"replicate.apply_p50_ms":       percentile(t.applies, 0.5),
		"replicate.apply_p90_ms":       percentile(t.applies, 0.9),
		"replicate.lag_p50_ms":         percentile(t.lags, 0.5),
		"replicate.lag_p90_ms":         percentile(t.lags, 0.9),
		"serve.absorb_compute_p50_ms":  percentile(by["http.absorb"], 0.5),
		"serve.catalog_compute_p50_ms": percentile(by["http.catalog"], 0.5),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// check that the decorators satisfy the seams they replace.
var (
	_ replicate.WaitTransport = (*lagTransport)(nil)
	_ oracle.Service          = (*timedMeter)(nil)
)
