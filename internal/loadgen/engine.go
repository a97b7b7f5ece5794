package loadgen

import (
	"container/list"
	"fmt"
	"math"

	"vesta/internal/loadgen/hist"
	"vesta/internal/rng"
)

// Service-time model (milliseconds), calibrated against results/serve.md:
// the uncached precomputed-plan predict lands ~4.1 ms, a cache hit answers
// at admission, an absorb runs a full online campaign, and a catalog update
// is an append+publish. Per-request lognormal noise (sigma 0.25) comes from
// a split rng stream keyed by arrival index, so every latency is a pure
// function of (Config, Knobs).
const (
	predictCostMS = 4.1
	hitCostMS     = 0.05
	absorbCostMS  = 250.0
	catalogCostMS = 2.0
	svcSigma      = 0.25
)

// Knobs are the admission-control parameters the tuner sweeps — the model
// twins of serve.Config{QueueSize, Workers, ShedThreshold} plus the modeled
// batch size and the client deadline.
type Knobs struct {
	// QueueDepth bounds the admission queue (serve.Config.QueueSize).
	QueueDepth int `json:"queue_depth"`
	// BatchSize bounds one modeled dispatch batch. serve itself does not
	// batch (each task is answered when it finishes, DESIGN.md §10), so the
	// model's batch-synchronous delivery overstates burst latency.
	BatchSize int `json:"batch_size"`
	// Workers is the modeled per-node worker pool a batch fans out on.
	Workers int `json:"workers"`
	// ShedThreshold enables priority-aware shedding: best-effort requests
	// (Priority >= 1) are rejected once queue occupancy reaches this fraction
	// of QueueDepth. 0 disables, 1 sheds only when actually full.
	ShedThreshold float64 `json:"shed_threshold"`
	// TimeoutMS is the client deadline: requests still queued past it are
	// canceled (they release their slot), and responses delivered past it
	// count as timeouts, not goodput.
	TimeoutMS float64 `json:"timeout_ms"`
	// CacheSize bounds the modeled response LRU (entries); 0 disables it.
	CacheSize int `json:"cache_size"`
}

// DefaultKnobs mirrors the serve defaults (8 modeled workers, 250 ms
// deadline).
func DefaultKnobs() Knobs {
	return Knobs{QueueDepth: 256, BatchSize: 16, Workers: 8, ShedThreshold: 0, TimeoutMS: 250, CacheSize: 1024}
}

func (k Knobs) validate() error {
	if k.QueueDepth <= 0 || k.BatchSize <= 0 || k.Workers <= 0 {
		return fmt.Errorf("loadgen: knobs need positive queue/batch/workers, got %d/%d/%d",
			k.QueueDepth, k.BatchSize, k.Workers)
	}
	if math.IsNaN(k.ShedThreshold) || k.ShedThreshold < 0 || k.ShedThreshold > 1 {
		return fmt.Errorf("loadgen: shed threshold %v (want [0, 1])", k.ShedThreshold)
	}
	if !finitePos(k.TimeoutMS) {
		return fmt.Errorf("loadgen: timeout %v ms (want finite > 0)", k.TimeoutMS)
	}
	if k.CacheSize < 0 {
		return fmt.Errorf("loadgen: cache size %d (want >= 0)", k.CacheSize)
	}
	return nil
}

// Report is the outcome accounting of one engine run. Offered always equals
// Good + Shed + Rejected + Canceled + Timeout: every scheduled request is
// answered exactly once — the overload contract the serve tests pin.
type Report struct {
	Config Config `json:"config"`
	Knobs  Knobs  `json:"knobs"`

	// Offered is the scheduled arrival count; OfferedRPS averages it over
	// the run's virtual duration.
	Offered    int64   `json:"offered"`
	OfferedRPS float64 `json:"offered_rps"`
	// Good is the goodput: answered within the deadline. GoodRPS averages it
	// over the run.
	Good    int64   `json:"good"`
	GoodRPS float64 `json:"good_rps"`
	// Shed counts priority sheds (503 before the queue filled); Rejected
	// counts hard queue-full rejections (503); Canceled counts requests whose
	// deadline expired while still queued (504, slot released unserved);
	// Timeout counts requests served past the deadline (504 delivered).
	Shed     int64 `json:"shed"`
	Rejected int64 `json:"rejected"`
	Canceled int64 `json:"canceled"`
	Timeout  int64 `json:"timeout"`

	// Per-kind offered counts (absorb/catalog bypass the admission queue).
	Predicts int64 `json:"predicts"`
	Absorbs  int64 `json:"absorbs"`
	Catalogs int64 `json:"catalogs"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Epochs counts hot-swaps (absorbs + catalog updates): each invalidates
	// the modeled response cache exactly like the (epoch, fingerprint) key
	// does in serve.
	Epochs int64 `json:"epochs"`

	// Queue/batch gauges: occupancy sampled at every arrival, dispatch batch
	// sizes over every formed batch.
	QueueMax  int     `json:"queue_max"`
	QueueMean float64 `json:"queue_mean"`
	BatchMax  int     `json:"batch_max"`
	BatchMean float64 `json:"batch_mean"`
	Batches   int64   `json:"batches"`

	// Hist holds goodput latencies (ms); ControlHist the absorb/catalog arm.
	Hist        *hist.H `json:"-"`
	ControlHist *hist.H `json:"-"`

	batchSizeSum int64
}

// Summary returns the goodput percentile ladder.
func (r *Report) Summary() hist.Summary { return r.Hist.Summarize() }

// Answered sums every terminal outcome; it must equal Offered.
func (r *Report) Answered() int64 {
	return r.Good + r.Shed + r.Rejected + r.Canceled + r.Timeout
}

// pending is one queued predict request.
type pending struct {
	arrivalMS float64
	svcMS     float64
	key       cacheKey
}

type cacheKey struct {
	epoch uint64
	app   string
	seed  uint64
}

// modelLRU is the engine's response-cache model: capacity-bounded, epoch in
// the key, values irrelevant (only membership matters). A nil *modelLRU is
// the cache-off arm.
type modelLRU struct {
	cap int
	ll  *list.List
	m   map[cacheKey]*list.Element
}

func newModelLRU(capacity int) *modelLRU {
	return &modelLRU{cap: capacity, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

func (c *modelLRU) get(k cacheKey) bool {
	if c == nil {
		return false
	}
	e, ok := c.m[k]
	if ok {
		c.ll.MoveToFront(e)
	}
	return ok
}

func (c *modelLRU) put(k cacheKey) {
	if c == nil {
		return
	}
	if e, ok := c.m[k]; ok {
		c.ll.MoveToFront(e)
		return
	}
	c.m[k] = c.ll.PushFront(k)
	if c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.m, old.Value.(cacheKey))
	}
}

// engine is the virtual-time discrete-event model of the serve admission
// pipeline: bounded FIFO queue, one dispatcher forming batches of up to
// BatchSize and running each batch to completion on Workers workers (the
// next batch starts when the previous finishes; serve itself answers each
// task when it finishes, DESIGN.md §15),
// response cache with epoch-keyed invalidation, priority shed, and client
// deadlines. The model deliberately omits singleflight coalescing: every
// miss charges a full solve, so its capacity numbers are conservative under
// hot-key herds.
type engine struct {
	k          Knobs
	busyUntil  float64
	queue      []pending
	cache      *modelLRU
	epoch      uint64
	rep        *Report
	batch      []pending
	workerLoad []float64
}

// observe records a goodput latency; the engine only produces finite
// non-negative values, so a histogram rejection is a model bug.
func observe(h *hist.H, ms float64) {
	if err := h.Observe(ms); err != nil {
		panic(err)
	}
}

// Run executes the schedule for cfg under the given knobs and returns the
// deterministic outcome report. Virtual time only: no wall clock, no
// goroutines — identical bytes on every run and at every evaluation worker
// count.
func Run(cfg Config, k Knobs) (*Report, error) {
	sched, err := Schedule(cfg)
	if err != nil {
		return nil, err
	}
	return replaySim(cfg, k, sched)
}

// replaySim is Run over a precomputed schedule (the determinism tests reuse
// one schedule across knob settings).
func replaySim(cfg Config, k Knobs, sched []Arrival) (*Report, error) {
	if err := k.validate(); err != nil {
		return nil, err
	}
	rep := &Report{
		Config:      cfg,
		Knobs:       k,
		Hist:        hist.New(),
		ControlHist: hist.New(),
	}
	e := &engine{
		k:          k,
		rep:        rep,
		batch:      make([]pending, k.BatchSize),
		workerLoad: make([]float64, k.Workers),
	}
	if k.CacheSize > 0 {
		e.cache = newModelLRU(k.CacheSize)
	}
	root := rng.New(cfg.Seed ^ 0x10adc0de) // service-time noise stream root
	var queueDepthSum int64
	for i, a := range sched {
		e.drainUntil(a.AtMS)
		rep.Offered++
		queueDepthSum += int64(len(e.queue))
		if len(e.queue) > rep.QueueMax {
			rep.QueueMax = len(e.queue)
		}
		r := root.Split(uint64(i))
		switch a.Kind {
		case KindAbsorb, KindCatalog:
			// Control plane: bypasses the admission queue (serve.AbsorbApp /
			// UpdateCatalog) and hot-swaps a new epoch, invalidating the
			// response cache for every later lookup.
			e.epoch++
			rep.Epochs++
			cost := absorbCostMS
			if a.Kind == KindCatalog {
				cost = catalogCostMS
				rep.Catalogs++
			} else {
				rep.Absorbs++
			}
			observe(rep.ControlHist, cost*r.LogNorm(0, svcSigma))
			rep.Good++
		default:
			rep.Predicts++
			e.admitPredict(a, r)
		}
	}
	e.drainUntil(math.Inf(1)) // run the backlog dry
	if rep.Offered > 0 {
		rep.QueueMean = float64(queueDepthSum) / float64(rep.Offered)
	}
	if cfg.DurationSec > 0 {
		rep.OfferedRPS = float64(rep.Offered) / cfg.DurationSec
		rep.GoodRPS = float64(rep.Good) / cfg.DurationSec
	}
	if rep.Batches > 0 {
		rep.BatchMean = float64(rep.batchSizeSum) / float64(rep.Batches)
	}
	return rep, nil
}

// admitPredict runs the data-plane admission path for one arrival: cache
// probe at the current epoch, then priority shed, then bounded queue.
func (e *engine) admitPredict(a Arrival, r *rng.Source) {
	key := cacheKey{epoch: e.epoch, app: a.App, seed: a.Seed}
	if e.cache.get(key) {
		e.rep.CacheHits++
		observe(e.rep.Hist, hitCostMS*r.LogNorm(0, svcSigma))
		e.rep.Good++
		return
	}
	e.rep.CacheMisses++
	if e.k.ShedThreshold > 0 && a.Priority > 0 &&
		float64(len(e.queue)) >= e.k.ShedThreshold*float64(e.k.QueueDepth) {
		e.rep.Shed++
		return
	}
	if len(e.queue) >= e.k.QueueDepth {
		e.rep.Rejected++
		return
	}
	e.queue = append(e.queue, pending{
		arrivalMS: a.AtMS,
		svcMS:     predictCostMS * r.LogNorm(0, svcSigma),
		key:       key,
	})
}

// drainUntil runs dispatcher batches whose start time falls strictly before
// now. Batches are sequential: the next starts when the previous completes
// (or when work reaches an idle dispatcher).
func (e *engine) drainUntil(nowMS float64) {
	for len(e.queue) > 0 {
		start := math.Max(e.busyUntil, e.queue[0].arrivalMS)
		if start >= nowMS {
			return
		}
		// Stage up to BatchSize requests that had arrived by the batch's
		// start. Requests whose deadline expired while queued are canceled —
		// the real server's ctx-canceled tasks release their slots unserved.
		n := 0
		for len(e.queue) > 0 && n < e.k.BatchSize {
			p := e.queue[0]
			if p.arrivalMS > start {
				break
			}
			e.queue = e.queue[1:]
			if start-p.arrivalMS > e.k.TimeoutMS {
				e.rep.Canceled++
				continue
			}
			e.batch[n] = p
			n++
		}
		if n == 0 {
			continue
		}
		e.rep.Batches++
		e.rep.batchSizeSum += int64(n)
		if n > e.rep.BatchMax {
			e.rep.BatchMax = n
		}
		// One batch runs to completion before the next forms; every task's
		// result is delivered at batch end (parallel.Map semantics).
		end := start + e.makespan(n)
		e.busyUntil = end
		for i := 0; i < n; i++ {
			p := e.batch[i]
			lat := end - p.arrivalMS
			if lat > e.k.TimeoutMS {
				e.rep.Timeout++
				continue
			}
			observe(e.rep.Hist, lat)
			e.rep.Good++
			e.cache.put(p.key)
		}
	}
}

// makespan computes the completion span of the first n staged batch tasks
// greedily assigned to the least-loaded of Workers workers — the same
// fan-out shape parallel.Map gives the real dispatcher.
func (e *engine) makespan(n int) float64 {
	load := e.workerLoad
	for i := range load {
		load[i] = 0
	}
	for i := 0; i < n; i++ {
		best := 0
		for w := 1; w < len(load); w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		load[best] += e.batch[i].svcMS
	}
	max := 0.0
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}
