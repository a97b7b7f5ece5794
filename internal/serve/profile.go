package serve

import (
	"container/list"
	"math"
	"sync"

	"vesta/internal/cloud"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// defaultProfileCacheSize is the memoized-measurement LRU capacity when
// Config.ProfileCacheSize is left zero.
const defaultProfileCacheSize = 4096

// profileKey identifies one memoizable measurement. The default meter's
// measurement is a pure function of (app, vm, request seed, want) under a
// fixed simulator configuration; the app itself is fully determined by its
// name plus the input-size override, rendered as exact float bits so
// distinct inputs can never collide. The want keeps the memo's key spaces
// apart: a times-only entry (no trace, no correlation vector) never answers
// a profile lookup, and a profile never answers a lookup of another feature
// set (a rollout that installs knowledge with a different kept set, say) or
// one that needs a trace it does not carry.
type profileKey struct {
	app  string
	gb   uint64 // math.Float64bits(app.InputGB)
	vm   vmPhysics
	seed uint64
	want sim.Want
}

// vmPhysics is what the simulator reads of a VM type to measure it: its
// name (the run's seed stream) and its hardware, with the floats as exact
// bits. A catalog update that retires a type and re-adds it under the same
// name with other hardware therefore keys apart. The price is left out: it
// scales only CostUSD, and keying on it would empty the memo at every
// reprice. A recall re-prices instead (see priced).
type vmPhysics struct {
	name                string
	vcpus               int
	mem, cpu, disk, net uint64
	burstable           bool
}

func physicsOf(vm cloud.VMType) vmPhysics {
	return vmPhysics{
		name: vm.Name, vcpus: vm.VCPUs,
		mem: math.Float64bits(vm.MemoryGiB), cpu: math.Float64bits(vm.CPUFactor),
		disk: math.Float64bits(vm.DiskMBps), net: math.Float64bits(vm.NetworkGbps),
		burstable: vm.Burstable,
	}
}

// profileLRU is a fixed-capacity, internally synchronized LRU over simulator
// measurements: profiles and times-only summaries, in their own key spaces
// but one recency order and one pair of hit/miss counters. It is shared by
// every request's meter, so a profiling campaign (sandbox + random picks)
// computed once serves every later request that would redo the identical
// measurement.
type profileLRU struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *profileEntry
	entries map[profileKey]*list.Element

	hits, misses int64
}

// profileEntry holds p for a profile and t for a times-only measurement
// (sim.Want{}). The profile sits behind a pointer so a timing entry carries
// no empty Profile.
type profileEntry struct {
	key profileKey
	p   *sim.Profile
	t   sim.Timing
}

func newProfileLRU(capacity int) *profileLRU {
	return &profileLRU{cap: capacity, order: list.New(), entries: make(map[profileKey]*list.Element)}
}

// get returns the entry under k, or nil on a miss. Entries are immutable
// once stored.
func (c *profileLRU) get(k profileKey) *profileEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*profileEntry)
}

func (c *profileLRU) put(e *profileEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		// Identical key means an identical (pure) measurement; refresh
		// recency.
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*profileEntry).key)
	}
}

func (c *profileLRU) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *profileLRU) counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// memoMeter is the default per-request measurement service with exact profile
// memoization. It implements oracle.Service with the same run accounting as
// oracle.Meter — every TryProfile charges one reference-VM unit whether the
// profile is computed or recalled — so OnlineRuns in responses and the
// Figure-8 overhead metric are byte-for-byte unchanged. Only the simulated
// cluster work is skipped: the measurement itself is a pure function of
// (app, vm, seed, want) for a fixed simulator, which is exactly the memo key.
type memoMeter struct {
	sim   *sim.Simulator
	seed  uint64
	cache *profileLRU // nil: memoization disabled, always simulate
	// sandbox is what TryProfile asks for: the snapshot's SandboxWant, the
	// only part of the sandbox measurement its prediction reads besides the
	// times. It is never sim.Want{}, whose entries hold timings alone:
	// knowledge keeps at least one feature.
	sandbox sim.Want

	mu   sync.Mutex
	runs int
}

// TryProfile implements oracle.Service with the sandbox's want. The
// ground-truth simulator cannot fail; the error is always nil.
func (m *memoMeter) TryProfile(app workload.App, vm cloud.VMType) (sim.Profile, error) {
	p, _ := m.measure(app, vm, m.sandbox)
	p.VM, p.CostUSD = vm, m.priced(p.P90Seconds, vm)
	return p, nil
}

// TryTime implements oracle.Service with a times-only measurement, charged
// like TryProfile. The error is always nil.
func (m *memoMeter) TryTime(app workload.App, vm cloud.VMType) (sim.Timing, error) {
	_, t := m.measure(app, vm, sim.Want{})
	t.CostUSD = m.priced(t.P90Seconds, vm)
	return t, nil
}

// measure charges one reference-VM unit and returns the measurement of app
// on vm under want, recalled from the memo or measured and stored there: a
// profile, or for sim.Want{} a timing alone. A recall keeps the price of
// its first measurement; the callers re-price it. Only what the memo keeps
// goes to the heap.
func (m *memoMeter) measure(app workload.App, vm cloud.VMType, want sim.Want) (sim.Profile, sim.Timing) {
	m.mu.Lock()
	m.runs++
	m.mu.Unlock()
	key := profileKey{app: app.Name, gb: math.Float64bits(app.InputGB), vm: physicsOf(vm), seed: m.seed, want: want}
	if m.cache != nil {
		if e := m.cache.get(key); e != nil {
			if e.p == nil {
				return sim.Profile{}, e.t
			}
			return *e.p, sim.Timing{}
		}
	}
	p := m.sim.Measure(app, vm, m.seed, want)
	if want == (sim.Want{}) {
		t := p.Timing()
		if m.cache != nil {
			m.cache.put(&profileEntry{key: key, t: t})
		}
		return sim.Profile{}, t
	}
	if m.cache != nil {
		stored := p
		m.cache.put(&profileEntry{key: key, p: &stored})
	}
	return p, sim.Timing{}
}

// priced is the cost at vm's current price of a measurement with P90 time
// p90: sim's own cost expression, so a recall made after a reprice equals a
// fresh measurement at the new price bit for bit.
func (m *memoMeter) priced(p90 float64, vm cloud.VMType) float64 {
	return p90 / 3600 * vm.PriceHour * float64(m.sim.Config().Nodes)
}

// Runs implements oracle.Service.
func (m *memoMeter) Runs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs
}

// SimConfig implements oracle.Service.
func (m *memoMeter) SimConfig() sim.Config { return m.sim.Config() }

// The compiler enforces the Service contract here rather than at first use.
var _ oracle.Service = (*memoMeter)(nil)
