// Package oracle provides (1) the exhaustive ground-truth tables the paper
// uses to define the "best" VM type (Section 5.2: ground truth is obtained
// by exhaustively running every workload on all 120 VM types), and (2) a
// run-counting measurement meter, so every selection system's training
// overhead (Figure 8's "number of reference VMs") is accounted identically.
package oracle

import (
	"fmt"
	"sync"

	"vesta/internal/cloud"
	"vesta/internal/obs"
	"vesta/internal/parallel"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// Key identifies one (application, VM type) measurement.
type Key struct {
	App string
	VM  string
}

// Table holds exhaustive P90 execution times and budgets.
type Table struct {
	apps []workload.App
	vms  []cloud.VMType
	time map[Key]float64
	cost map[Key]float64
}

// Build exhaustively profiles every app on every VM type using one worker
// per CPU. seed fixes the whole table deterministically.
func Build(s *sim.Simulator, apps []workload.App, vms []cloud.VMType, seed uint64) *Table {
	return BuildWorkers(s, apps, vms, seed, 0)
}

// BuildWorkers is Build with an explicit worker count following the
// repository's -workers convention (<= 0 means one per CPU). The grid is
// embarrassingly parallel — each (app, VM) cell depends only on its own
// fixed seed — so the table is byte-identical at any worker count.
func BuildWorkers(s *sim.Simulator, apps []workload.App, vms []cloud.VMType, seed uint64, workers int) *Table {
	t := &Table{
		apps: append([]workload.App(nil), apps...),
		vms:  append([]cloud.VMType(nil), vms...),
		time: make(map[Key]float64, len(apps)*len(vms)),
		cost: make(map[Key]float64, len(apps)*len(vms)),
	}
	type cell struct {
		key  Key
		time float64
		cost float64
	}
	results := parallel.Map(workers, len(apps)*len(vms), func(idx int) cell {
		a := apps[idx/len(vms)]
		v := vms[idx%len(vms)]
		p := s.ProfileTimed(a, v, seed)
		return cell{Key{App: a.Name, VM: v.Name}, p.P90Seconds, p.CostUSD}
	})
	for _, c := range results {
		t.time[c.key] = c.time
		t.cost[c.key] = c.cost
	}
	return t
}

// Apps returns the profiled applications.
func (t *Table) Apps() []workload.App { return append([]workload.App(nil), t.apps...) }

// VMs returns the profiled VM types.
func (t *Table) VMs() []cloud.VMType { return append([]cloud.VMType(nil), t.vms...) }

// Time returns the ground-truth P90 execution time in seconds.
func (t *Table) Time(app, vm string) (float64, error) {
	v, ok := t.time[Key{App: app, VM: vm}]
	if !ok {
		return 0, fmt.Errorf("oracle: no measurement for %s on %s", app, vm)
	}
	return v, nil
}

// Cost returns the ground-truth budget in USD.
func (t *Table) Cost(app, vm string) (float64, error) {
	v, ok := t.cost[Key{App: app, VM: vm}]
	if !ok {
		return 0, fmt.Errorf("oracle: no measurement for %s on %s", app, vm)
	}
	return v, nil
}

// BestByTime returns the VM minimizing execution time for app.
func (t *Table) BestByTime(app string) (cloud.VMType, float64, error) {
	return t.best(app, t.time)
}

// BestByCost returns the VM minimizing budget for app.
func (t *Table) BestByCost(app string) (cloud.VMType, float64, error) {
	return t.best(app, t.cost)
}

func (t *Table) best(app string, metric map[Key]float64) (cloud.VMType, float64, error) {
	var bestVM cloud.VMType
	bestVal := -1.0
	for _, v := range t.vms {
		val, ok := metric[Key{App: app, VM: v.Name}]
		if !ok {
			return cloud.VMType{}, 0, fmt.Errorf("oracle: app %q not in table", app)
		}
		if bestVal < 0 || val < bestVal || (val == bestVal && v.Name < bestVM.Name) {
			bestVM, bestVal = v, val
		}
	}
	if bestVal < 0 {
		return cloud.VMType{}, 0, fmt.Errorf("oracle: empty table")
	}
	return bestVM, bestVal, nil
}

// TimesFor returns app's ground-truth times for every VM, in catalog order.
func (t *Table) TimesFor(app string) ([]float64, error) {
	out := make([]float64, len(t.vms))
	for i, v := range t.vms {
		val, ok := t.time[Key{App: app, VM: v.Name}]
		if !ok {
			return nil, fmt.Errorf("oracle: app %q not in table", app)
		}
		out[i] = val
	}
	return out, nil
}

// Step is one trial in a sequential optimization run (the Figure 12/13
// protocol): a system tries a VM type, observes the execution time, and the
// best-so-far statistics are carried along.
type Step struct {
	Run         int
	VM          string
	ObservedSec float64
	ObservedUSD float64
	BestSec     float64 // best-so-far execution time
	BestUSD     float64 // best-so-far budget
}

// Service is the measurement interface selection systems depend on: profile
// a workload on a VM type (possibly failing under fault injection), with
// Figure-8-style run accounting. *Meter implements it over infallible
// ground-truth physics; *Resilient implements it over the fault-injected
// checked paths with retries and quarantine.
type Service interface {
	// TryProfile measures app on vm, charging the training-overhead counter,
	// and fails when the measurement is unrecoverable.
	TryProfile(app workload.App, vm cloud.VMType) (sim.Profile, error)
	// TryTime is TryProfile for callers that read only times: it charges,
	// logs, traces and fails exactly like TryProfile and returns the same
	// timing fields, but an implementation may skip the metric traces no
	// such caller reads.
	TryTime(app workload.App, vm cloud.VMType) (sim.Timing, error)
	// Runs returns the reference-VM profilings charged so far.
	Runs() int
	// SimConfig exposes the underlying simulator's effective configuration
	// (cluster size, repeats) for cost accounting.
	SimConfig() sim.Config
}

// Meter is the measurement service handed to selection systems. Every
// profiling request is a real (simulated) cluster deployment, so the meter
// both performs it and counts it. The count is the paper's training-overhead
// metric: one unit per reference VM profiled.
type Meter struct {
	Sim  *sim.Simulator
	Seed uint64

	mu     sync.Mutex
	runs   int
	log    []Key
	tracer *obs.Tracer
}

// NewMeter wraps a simulator with run accounting.
func NewMeter(s *sim.Simulator, seed uint64) *Meter {
	return &Meter{Sim: s, Seed: seed}
}

// SetTracer attaches an observability tracer: every charged profiling gets a
// span keyed by (app, vm) whose duration is the simulated cluster time the
// campaign burned, plus a meter.runs counter increment. The span content is
// a pure function of (app, vm, meter seed), so traces are byte-identical at
// any worker count. Returns the meter for chaining.
func (m *Meter) SetTracer(t *obs.Tracer) *Meter {
	m.mu.Lock()
	m.tracer = t
	m.mu.Unlock()
	return m
}

// Tracer returns the attached tracer (nil when tracing is off).
func (m *Meter) Tracer() *obs.Tracer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tracer
}

// startProfileSpan charges the meter.runs trace counter and opens the
// per-profile span. attempt < 0 marks the ground-truth (non-chaos) path,
// whose key omits the attempt. Close the returned span with
// EndSim(spentSec(runs, wasted)) so the serialized duration is simulated
// cluster time — a pure function of (app, vm, meter seed[, attempt]) — while
// the wall timing stays on the verbose stream.
func (m *Meter) startProfileSpan(app, vm string, attempt int) obs.Span {
	t := m.Tracer()
	if !t.Enabled() {
		return obs.Span{}
	}
	t.Count("meter.runs", 1)
	key := "profile/app=" + app + "/vm=" + vm
	if attempt >= 0 {
		key = fmt.Sprintf("%s/attempt=%d", key, attempt)
	}
	return t.Start(key)
}

// charge counts one reference-VM unit for app on vm.
func (m *Meter) charge(app, vm string) {
	m.mu.Lock()
	m.runs++
	m.log = append(m.log, Key{App: app, VM: vm})
	m.mu.Unlock()
}

// Profile measures app on vm (the full repeated-run P90 protocol) and
// charges one reference-VM unit.
func (m *Meter) Profile(app workload.App, vm cloud.VMType) sim.Profile {
	m.charge(app.Name, vm.Name)
	sp := m.startProfileSpan(app.Name, vm.Name, -1)
	p := m.Sim.ProfileRun(app, vm, m.Seed)
	sp.EndSim(spentSec(p.Runs, p.WastedSec))
	return p
}

// TryProfile implements Service. On a ground-truth meter the measurement
// cannot fail; the error is always nil.
func (m *Meter) TryProfile(app workload.App, vm cloud.VMType) (sim.Profile, error) {
	return m.Profile(app, vm), nil
}

// TryTime implements Service: the same run, log entry and span as
// TryProfile, measured without metric traces. The error is always nil.
func (m *Meter) TryTime(app workload.App, vm cloud.VMType) (sim.Timing, error) {
	m.charge(app.Name, vm.Name)
	sp := m.startProfileSpan(app.Name, vm.Name, -1)
	t := m.Sim.ProfileTimed(app, vm, m.Seed)
	sp.EndSim(spentSec(t.Runs, 0))
	return t, nil
}

// SimConfig implements Service.
func (m *Meter) SimConfig() sim.Config { return m.Sim.Config() }

// TryProfileAttempt measures app on vm through the simulator's checked
// (fault-injectable) path, charging one reference-VM unit whether or not the
// measurement survives — a failed campaign still burned the cluster time.
func (m *Meter) TryProfileAttempt(app workload.App, vm cloud.VMType, attempt uint64) (sim.Profile, error) {
	m.charge(app.Name, vm.Name)
	sp := m.startProfileSpan(app.Name, vm.Name, int(attempt))
	p, err := m.Sim.ProfileAttempt(app, vm, m.Seed, attempt)
	sp.EndSim(spentSec(p.Runs, p.WastedSec))
	return p, err
}

// ProfileWith measures app on vm using an alternative simulator
// configuration (e.g. a different cluster size) while charging this meter's
// counter — every cluster deployment costs a reference run regardless of
// its shape.
func (m *Meter) ProfileWith(s *sim.Simulator, app workload.App, vm cloud.VMType) sim.Profile {
	m.charge(app.Name, vm.Name)
	sp := m.startProfileSpan(app.Name, vm.Name, -1)
	p := s.ProfileRun(app, vm, m.Seed)
	sp.EndSim(spentSec(p.Runs, p.WastedSec))
	return p
}

// Runs returns the number of reference-VM profilings charged so far.
func (m *Meter) Runs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs
}

// Log returns the profiling history (copy).
func (m *Meter) Log() []Key {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Key(nil), m.log...)
}

// Reset zeroes the counter and history (e.g. between offline and online
// accounting).
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runs = 0
	m.log = nil
}
