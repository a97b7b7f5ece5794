package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/loadgen"
	"vesta/internal/serve"
	"vesta/internal/workload"
)

// writePrefix names the absorbs and catalog updates of a timed window
// ("perf-<arrival>"); warm-up writes use "warm-". Traced WAL decorators use
// the prefix to attribute a write to its arrival.
const writePrefix = "perf-"

// arrival is one scheduled request, encoded before the window starts.
type arrival struct {
	due     time.Duration // since the window start
	kind    loadgen.Kind
	req     serve.Request // predicts
	label   string        // absorb name or catalog note
	payload []byte        // HTTP body
}

func (a *arrival) key() string { return callKey(a.req.App, a.req.Seed) }

// Loadgen seeds of the timed window and of its warm-up. Every run of a
// workload replays the same loadgen draw of arrival times, kinds,
// applications and tenant ranks; the benchmark seed decides which request
// seed each tenant asks with (tenantSeeds). With the draw itself seeded,
// which of 30 applications costing 2 to 18 ms happened to cluster where
// moved a run's latency quantiles by a tenth between seeds, more than the
// machine did once its speed is normalized (README.md, Noise).
const (
	timedSchedule = 1
	warmSchedule  = 2
)

// tenantSeeds is the benchmark seed's permutation of loadgen's request seeds
// 1..1024 (one per tenant rank): tenantSeeds(seed)[s-1] replaces seed s.
func tenantSeeds(seed uint64) []uint64 {
	perm := rand.New(rand.NewSource(int64(seed))).Perm(1024)
	out := make([]uint64, len(perm))
	for i, p := range perm {
		out[i] = uint64(p) + 1
	}
	return out
}

// arrivals turns the workload's loadgen schedule into requests, with request
// seeds relabelled by seeds. Absorbs get unique names; catalog updates
// alternate a reprice of the first VM between two valid prices so every one
// is a real state change.
func arrivals(w workloadDef, schedule uint64, seeds []uint64, sec, rateScale float64, prefix string, base *core.Snapshot) ([]arrival, error) {
	cfg := w.load(schedule, sec)
	cfg.Pattern.RPS *= rateScale
	sched, err := loadgen.Schedule(cfg)
	if err != nil {
		return nil, err
	}
	vm := base.Catalog()[0]
	out := make([]arrival, len(sched))
	for i, s := range sched {
		if s.Seed < 1 || s.Seed > uint64(len(seeds)) {
			return nil, fmt.Errorf("loadgen request seed %d outside 1..%d", s.Seed, len(seeds))
		}
		seed := seeds[s.Seed-1]
		a := arrival{due: time.Duration(s.AtMS * float64(time.Millisecond)), kind: s.Kind}
		var body any
		switch s.Kind {
		case loadgen.KindPredict:
			a.req = serve.Request{App: s.App, Seed: seed, Priority: s.Priority}
			body = a.req
		case loadgen.KindAbsorb:
			a.label = prefix + strconv.Itoa(i)
			body = serve.AbsorbRequest{Name: a.label, App: s.App, Seed: seed}
		case loadgen.KindCatalog:
			a.label = prefix + strconv.Itoa(i)
			price := vm.PriceHour * 1.5
			if i%2 == 1 {
				price = vm.PriceHour * 0.75
			}
			body = cloud.Update{Note: a.label, Reprice: map[string]float64{vm.Name: price}}
		}
		if a.payload, err = json.Marshal(body); err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// class is the outcome of one request. Every attempted request ends in
// exactly one class; unrecorded (the zero value) means the harness lost it,
// which the conservation check rejects.
type class int

const (
	unrecorded  class = iota
	good              // answered OK within its deadline
	late              // answered OK after its deadline
	timeout           // the deadline expired before an answer
	rejected          // admission refused it: queue full or shed (503)
	unavailable       // the router found no backend at the epoch floor (502)
	errored           // any other failure
	numClasses
)

var classNames = [numClasses]string{"unrecorded", "good", "late", "timeout", "rejected", "unavailable", "errored"}

type outcome struct {
	class   class
	late    float64 // ms the dispatcher released the arrival after its due time
	latency float64 // ms from due time to answer
	stolen  bool    // the hypervisor stole CPU time while it was in flight (stealMonitor)
}

// newClient is the harness's HTTP client: at most nproc connections per host,
// so the client process never out-multiplexes the machine it measures.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// replayer replays schedules open loop against one fleet.
type replayer struct {
	f      *fleet
	client *http.Client
	path   path
	tr     *tracer // nil: untraced

	acked  atomic.Int64 // writes answered 200
	unsure atomic.Int64 // writes whose deadline expired: applied or not
	bodies *sync.Map    // predict key → the first OK response body
}

// traced reports whether requests sent now belong to a traced window.
func (d *replayer) traced() bool { return d.tr != nil && d.tr.on.Load() }

// drive releases the schedule open loop from one dispatch goroutine: after
// each wake it starts every arrival whose due time has passed, each on its
// own goroutine, then sleeps until the next one is due. It returns once
// every request has an outcome; deadlines bound how long that takes.
func (d *replayer) drive(sched []arrival) []outcome {
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	next := 0
	for next < len(sched) {
		now := time.Since(start)
		for ; next < len(sched) && sched[next].due <= now; next++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outs[i] = d.do(start, i, &sched[i], now)
			}(next)
		}
		if next < len(sched) {
			time.Sleep(sched[next].due - time.Since(start))
		}
	}
	wg.Wait()
	return outs
}

// do sends one request and classifies its answer, timed from its due time.
func (d *replayer) do(start time.Time, i int, a *arrival, released time.Duration) outcome {
	due := start.Add(a.due)
	limit := predictDeadline
	if a.kind != loadgen.KindPredict {
		limit = writeDeadline
	}
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(limit))
	defer cancel()

	var c class
	switch a.kind {
	case loadgen.KindPredict:
		var body []byte
		if c, body = d.predict(ctx, i, a); c == good && d.bodies != nil {
			if _, ok := d.bodies.Load(a.key()); !ok {
				d.bodies.LoadOrStore(a.key(), body)
			}
		}
	case loadgen.KindAbsorb:
		c, _ = d.post(ctx, i, a, d.f.leaderURL+"/absorb", "client.absorb")
	default:
		c, _ = d.post(ctx, i, a, d.f.leaderURL+"/catalog", "client.catalog")
	}
	end := time.Now()
	if c == good && end.After(due.Add(limit)) {
		c = late
	}
	return outcome{class: c, late: ms(released - a.due), latency: ms(end.Sub(due))}
}

// predict sends one predict down the workload's path.
func (d *replayer) predict(ctx context.Context, i int, a *arrival) (class, []byte) {
	if d.path == inProcess {
		return d.predictInProcess(ctx, i, a)
	}
	return d.post(ctx, i, a, d.f.routerURL+"/predict", "client.predict")
}

// sweep sends every distinct predict key of reqs once down the workload's
// path, nproc requests at a time and without the window's deadline, and
// returns the answers by key. It collects the selection-quality answers and
// fills caches before a window.
func (d *replayer) sweep(reqs []arrival) (map[string][]byte, error) {
	bodies := map[string][]byte{}
	seen := map[string]bool{}
	var mu sync.Mutex // guards bodies
	var failed atomic.Int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i := range reqs {
		a := &reqs[i]
		if a.kind != loadgen.KindPredict || seen[a.key()] {
			continue
		}
		seen[a.key()] = true
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			c, body := d.predict(ctx, -1, a)
			if c != good {
				failed.Add(1)
				return
			}
			mu.Lock()
			bodies[a.key()] = body
			mu.Unlock()
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return nil, fmt.Errorf("%d of %d keys failed", n, len(seen))
	}
	return bodies, nil
}

func (d *replayer) predictInProcess(ctx context.Context, i int, a *arrival) (class, []byte) {
	var c *call
	if d.traced() {
		c = d.tr.begin(i, a.req.App, a.req.Seed)
	}
	body, err := d.f.lsrv.PredictBytes(ctx, a.req)
	if c != nil {
		d.tr.finish(c, time.Now())
	}
	switch {
	case err == nil:
		return good, body
	case errors.Is(err, serve.ErrQueueFull):
		return rejected, nil
	case errors.Is(err, context.DeadlineExceeded):
		return timeout, nil
	default:
		return errored, nil
	}
}

// post sends one HTTP request. Predicts go to the router, writes to the
// leader; a traced request carries its span so each hop can name its parent.
func (d *replayer) post(ctx context.Context, i int, a *arrival, url, spanName string) (class, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(a.payload))
	if err != nil {
		return errored, nil
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	traced := d.traced()
	if traced {
		id = d.tr.id()
		req.Header.Set(spanHeader, header(i, id))
	}
	start := time.Now()
	status, body, err := d.roundTrip(req)
	if traced {
		d.tr.add(spanName, i, id, 0, start, time.Now())
	}
	write := a.kind != loadgen.KindPredict
	switch {
	case err != nil && ctx.Err() != nil:
		if write {
			d.unsure.Add(1)
		}
		return timeout, nil
	case err != nil:
		return errored, nil
	case status == http.StatusOK:
		if write {
			d.acked.Add(1)
		}
		return good, body
	case status == http.StatusServiceUnavailable:
		return rejected, nil
	case status == http.StatusGatewayTimeout:
		return timeout, nil
	case status == http.StatusBadGateway:
		return unavailable, nil
	default:
		return errored, nil
	}
}

func (d *replayer) roundTrip(req *http.Request) (int, []byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// evaluationSet is the fixed selection-quality probe: the paper's 12 Spark
// target applications at request seeds 1..seeds. It does not depend on the
// workload seed, so regret_pct moves only when the served answers do.
func evaluationSet(seeds uint64) ([]arrival, error) {
	var out []arrival
	for _, app := range workload.TargetSet() {
		for seed := uint64(1); seed <= seeds; seed++ {
			a := arrival{kind: loadgen.KindPredict, req: serve.Request{App: app.Name, Seed: seed}}
			var err error
			if a.payload, err = json.Marshal(a.req); err != nil {
				return nil, err
			}
			out = append(out, a)
		}
	}
	return out, nil
}

// window is everything one timed window measured.
type window struct {
	arrivals []arrival
	outs     []outcome
	// counters of every layer just before the window and after it drained.
	before, after counters
	cpuMS         float64           // process user+sys CPU over the window
	rssMB         float64           // peak resident set of the process up to the window's end
	bodies        *sync.Map         // predict key → the first OK body of the window
	quality       map[string][]byte // epoch-0 answers to the evaluation set (untraced only)
	acked, unsure int64             // writes, warm-up included
	epoch         uint64
	converged     error // write workloads: follower/leader convergence
	tr            *tracer
	start, end    time.Time // of the timed window
	stealPct      float64   // share of the machine's CPU time the hypervisor stole during it
}

// measure builds a fresh fleet, asks it the selection-quality probe, fills
// its caches when the workload asks for it, warms it for a tenth of the
// window on a schedule of its own seed, then runs the timed window and
// collects what the correctness gate and the metrics need before tearing
// the fleet down.
func (b *bench) measure(w workloadDef, traced bool) (*window, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	seeds := tenantSeeds(b.opts.seed)
	warm, err := arrivals(w, warmSchedule, seeds, b.opts.seconds/10, b.opts.rateScale, "warm-", b.base)
	if err != nil {
		return nil, err
	}
	timed, err := arrivals(w, timedSchedule, seeds, b.opts.seconds, b.opts.rateScale, writePrefix, b.base)
	if err != nil {
		return nil, err
	}
	f, err := newFleet(b.base, tr, w.meterSpans)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	defer f.close()
	client := newClient()
	defer client.CloseIdleConnections()
	d := &replayer{f: f, client: client, path: w.path, tr: tr}
	win := &window{arrivals: timed, tr: tr, bodies: &sync.Map{}}

	// The selection-quality probe runs on the fresh epoch-0 fleet, so
	// regret_pct reflects the served model and code, not which workloads a
	// seed's writes happened to absorb. Only the untraced window reports it.
	if !traced {
		eval, err := evaluationSet(b.opts.evalSeeds)
		if err != nil {
			return nil, err
		}
		if win.quality, err = d.sweep(eval); err != nil {
			return nil, fmt.Errorf("selection-quality probe: %w", err)
		}
	}

	if w.fill {
		if _, err := d.sweep(timed); err != nil {
			return nil, fmt.Errorf("cache fill: %w", err)
		}
	}
	d.drive(warm)
	runtime.GC()
	d.bodies = win.bodies
	win.before = f.counters()
	cpu0, _, err := usage()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.on.Store(true)
	}
	steal := startStealMonitor()
	win.start = time.Now()
	win.outs = d.drive(timed)
	win.end = time.Now()
	win.stealPct = steal.stop()
	for i := range win.outs {
		due := win.start.Add(timed[i].due)
		o := &win.outs[i]
		o.stolen = steal.overlaps(due, due.Add(time.Duration(o.latency*float64(time.Millisecond))))
	}
	if tr != nil {
		tr.on.Store(false)
	}
	cpu1, rssMB, err := usage()
	if err != nil {
		return nil, err
	}
	win.cpuMS, win.rssMB = ms(cpu1-cpu0), rssMB
	win.after = f.counters()

	win.acked, win.unsure = d.acked.Load(), d.unsure.Load()
	win.epoch = f.lsrv.Snapshot().Epoch()
	if hasWrites(timed) {
		win.converged = checkConverged(f)
	}
	return win, nil
}

// checkConverged waits for the follower to apply everything the leader
// acked, then requires the two snapshots to encode byte-identically.
func checkConverged(f *fleet) error {
	if !f.converge(10 * time.Second) {
		return fmt.Errorf("follower at epoch %d never caught up with leader epoch %d",
			f.fsrv.Snapshot().Epoch(), f.lsrv.Snapshot().Epoch())
	}
	var lb, fb bytes.Buffer
	if err := f.lsrv.Snapshot().Encode(&lb); err != nil {
		return err
	}
	if err := f.fsrv.Snapshot().Encode(&fb); err != nil {
		return err
	}
	if !bytes.Equal(lb.Bytes(), fb.Bytes()) {
		return fmt.Errorf("follower snapshot (%d bytes) differs from leader snapshot (%d bytes) at epoch %d",
			fb.Len(), lb.Len(), f.lsrv.Snapshot().Epoch())
	}
	return nil
}

// usage reads the process's user+sys CPU time and its peak resident set in
// MB (Linux reports Maxrss in KiB).
func usage() (cpu time.Duration, rssMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024, nil
}
