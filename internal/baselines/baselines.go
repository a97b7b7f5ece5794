// Package baselines implements the alternative VM-type selection systems the
// paper compares against (Table 5):
//
//   - PARIS (Yadwadkar et al., SoCC'17): a Random Forest over low-level
//     metric fingerprints and VM features. Two modes: CrossFramework (the
//     paper's empirical-study setup — trained on Hadoop+Hive, reused for
//     Spark, Figure 2) and Scratch (trained per target workload with N
//     reference VMs, Figures 3 and 8).
//   - Ernest (Venkataraman et al., NSDI'16): an NNLS-fit performance-cost
//     model over communication-pattern terms, designed for Spark-style
//     advanced analytics.
//   - RandomSearch and CherryPickLite (Alipourfard et al., NSDI'17-style
//     surrogate search) as additional reference points and ablations.
//
// Every system consumes measurements only through an oracle.Meter, so
// training overhead is accounted identically across systems.
package baselines

import (
	"fmt"
	"math"
	"sort"

	"vesta/internal/cloud"
	"vesta/internal/forest"
	"vesta/internal/gp"
	"vesta/internal/mat"
	"vesta/internal/metrics"
	"vesta/internal/nnls"
	"vesta/internal/oracle"
	"vesta/internal/rng"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// Selection is a baseline's prediction for one target workload.
type Selection struct {
	Target string
	// Best is the predicted best VM type.
	Best cloud.VMType
	// Ranking lists VM names best-first.
	Ranking []string
	// PredictedSec maps VM name to predicted execution time.
	PredictedSec map[string]float64
	// Observed maps VM name to the measured time for VMs the system
	// actually profiled while selecting.
	Observed map[string]float64
	// OnlineRuns is the reference-VM count charged for this target.
	OnlineRuns int
}

// Selector is the common interface of all selection systems in this package.
type Selector interface {
	Name() string
	// Select predicts the best VM for the target, charging runs to meter.
	Select(target workload.App, meter *oracle.Meter) (*Selection, error)
}

// vmFeatures is the VM-side feature vector shared by the learned baselines.
func vmFeatures(v cloud.VMType) []float64 {
	rv := v.ResourceVector()
	return append(rv, float64(v.VCPUs)/96, boolTo(v.Burstable), boolTo(v.GPU))
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// fingerprint summarizes a profiling run as the mean level of each sampled
// series plus the scalar execution ratios — the PARIS-style low-level
// feature vector.
func fingerprint(p sim.Profile) []float64 {
	out := make([]float64, 0, int(metrics.NumSeries)+3)
	for id := metrics.SeriesID(0); id < metrics.NumSeries; id++ {
		sum := 0.0
		for _, v := range p.Trace.Series[id] {
			sum += v
		}
		out = append(out, sum/float64(p.Trace.Len()))
	}
	out = append(out, p.Exec.DataPerCycle, p.Exec.DataPerIteration, p.Exec.DataPerParallelism)
	return out
}

// ---------------------------------------------------------------------------
// PARIS
// ---------------------------------------------------------------------------

// Paris is the Random Forest baseline in its cross-framework mode: trained
// once on source (Hadoop+Hive) workloads, then reused for any target. The
// paper's Figure 2 shows why this reuse is fragile across frameworks.
type Paris struct {
	// RefVMs are the reference VM types used for workload fingerprints
	// (PARIS profiles new workloads on a small fixed reference set).
	RefVMs []string
	// Trees configures the forest size. Default 40.
	Trees int
	Seed  uint64

	catalog []cloud.VMType
	byName  map[string]cloud.VMType
	model   *forest.Forest
	// trainRuns is the offline overhead charged during Train.
	trainRuns int
}

// NewParis constructs the cross-framework PARIS baseline.
func NewParis(catalog []cloud.VMType, seed uint64) *Paris {
	return &Paris{
		RefVMs:  []string{"m5.xlarge", "c5.xlarge"},
		Trees:   40,
		Seed:    seed,
		catalog: append([]cloud.VMType(nil), catalog...),
		byName:  cloud.ByName(catalog),
	}
}

// Name implements Selector.
func (p *Paris) Name() string { return "PARIS" }

// TrainRuns returns the offline reference-VM count.
func (p *Paris) TrainRuns() int { return p.trainRuns }

// Train profiles every source workload on every VM type and fits the forest
// on (fingerprint, VM features) -> log(execution time).
func (p *Paris) Train(sources []workload.App, meter *oracle.Meter) error {
	if len(sources) == 0 {
		return fmt.Errorf("paris: no source workloads")
	}
	start := meter.Runs()
	var xs [][]float64
	var ys []float64
	for _, app := range sources {
		fp, err := p.fingerprint(app, meter)
		if err != nil {
			return err
		}
		for _, vm := range p.catalog {
			prof := meter.Measure(app, vm, sim.Want{})
			row := append(append([]float64(nil), fp...), vmFeatures(vm)...)
			xs = append(xs, row)
			ys = append(ys, math.Log(prof.P90Seconds))
		}
	}
	f, err := forest.FitForest(xs, ys, forest.ForestConfig{NumTrees: p.Trees}, rng.New(p.Seed))
	if err != nil {
		return fmt.Errorf("paris: forest fit: %w", err)
	}
	p.model = f
	p.trainRuns = meter.Runs() - start
	return nil
}

// fingerprint profiles the app on the reference VMs and concatenates the
// per-VM fingerprints.
func (p *Paris) fingerprint(app workload.App, meter *oracle.Meter) ([]float64, error) {
	var fp []float64
	for _, name := range p.RefVMs {
		vm, ok := p.byName[name]
		if !ok {
			return nil, fmt.Errorf("paris: reference VM %q not in catalog", name)
		}
		prof := meter.Measure(app, vm, sim.Want{Trace: true})
		fp = append(fp, fingerprint(prof)...)
	}
	return fp, nil
}

// Select implements Selector: fingerprint the target on the reference VMs,
// then predict a time for every catalog VM with the pre-trained forest.
func (p *Paris) Select(target workload.App, meter *oracle.Meter) (*Selection, error) {
	if p.model == nil {
		return nil, fmt.Errorf("paris: Select before Train")
	}
	start := meter.Runs()
	observed := map[string]float64{}
	var fp []float64
	for _, name := range p.RefVMs {
		vm, ok := p.byName[name]
		if !ok {
			return nil, fmt.Errorf("paris: reference VM %q not in catalog", name)
		}
		prof := meter.Measure(target, vm, sim.Want{Trace: true})
		observed[vm.Name] = prof.P90Seconds
		fp = append(fp, fingerprint(prof)...)
	}
	predicted := make(map[string]float64, len(p.catalog))
	for _, vm := range p.catalog {
		if sec, ok := observed[vm.Name]; ok {
			predicted[vm.Name] = sec
			continue
		}
		row := append(append([]float64(nil), fp...), vmFeatures(vm)...)
		predicted[vm.Name] = math.Exp(p.model.Predict(row))
	}
	sel := rankSelection(target.Name, p.catalog, predicted)
	sel.Observed = observed
	sel.OnlineRuns = meter.Runs() - start
	return sel, nil
}

// ---------------------------------------------------------------------------
// PARIS trained from scratch (per-target, Figures 3 and 8)
// ---------------------------------------------------------------------------

// ParisScratch trains a fresh per-workload model using N reference VM runs —
// what a machine learning approach must do for a brand-new framework with no
// transferable knowledge. The paper charges it about 100 reference VMs.
type ParisScratch struct {
	// SampleVMs is the number of reference VMs profiled per target (default
	// 100, the paper's Figure 8 setting).
	SampleVMs int
	Trees     int
	Seed      uint64
	catalog   []cloud.VMType
}

// NewParisScratch constructs the from-scratch PARIS variant.
func NewParisScratch(catalog []cloud.VMType, seed uint64) *ParisScratch {
	return &ParisScratch{SampleVMs: 100, Trees: 40, Seed: seed,
		catalog: append([]cloud.VMType(nil), catalog...)}
}

// Name implements Selector.
func (p *ParisScratch) Name() string { return "PARIS-scratch" }

// Select implements Selector: profile the target on SampleVMs reference VMs,
// fit a forest on VM features -> log(time), and predict the rest.
func (p *ParisScratch) Select(target workload.App, meter *oracle.Meter) (*Selection, error) {
	if p.SampleVMs < 2 {
		return nil, fmt.Errorf("paris-scratch: need at least 2 sample VMs")
	}
	start := meter.Runs()
	src := rng.New(p.Seed ^ hashString(target.Name))
	n := p.SampleVMs
	if n > len(p.catalog) {
		n = len(p.catalog)
	}
	sample := src.Sample(len(p.catalog), n)

	var xs [][]float64
	var ys []float64
	observed := make(map[string]float64, n)
	for _, i := range sample {
		vm := p.catalog[i]
		prof := meter.Measure(target, vm, sim.Want{})
		xs = append(xs, vmFeatures(vm))
		ys = append(ys, math.Log(prof.P90Seconds))
		observed[vm.Name] = prof.P90Seconds
	}
	f, err := forest.FitForest(xs, ys, forest.ForestConfig{NumTrees: p.Trees}, src)
	if err != nil {
		return nil, fmt.Errorf("paris-scratch: forest fit: %w", err)
	}
	predicted := make(map[string]float64, len(p.catalog))
	for _, vm := range p.catalog {
		if sec, ok := observed[vm.Name]; ok {
			predicted[vm.Name] = sec
			continue
		}
		predicted[vm.Name] = math.Exp(f.Predict(vmFeatures(vm)))
	}
	sel := rankSelection(target.Name, p.catalog, predicted)
	sel.Observed = observed
	sel.OnlineRuns = meter.Runs() - start
	return sel, nil
}

// ---------------------------------------------------------------------------
// Ernest
// ---------------------------------------------------------------------------

// Ernest fits the NSDI'16 performance-cost model: execution time is a
// non-negative combination of a fixed cost, a data-per-core term, a
// log(cores) tree-reduction term, and a per-core coordination term. The
// model is fit per target from a handful of profiling runs on small VM
// types, then extrapolated to the whole catalog. It captures Spark-style
// compute/communication scaling but has no notion of disk materialization
// or memory pressure — the reason it "only works well in Spark" (Table 5).
type Ernest struct {
	// TrainVMs are the profiling configurations (small, cheap types spanning
	// core counts, like Ernest's small-scale training runs).
	TrainVMs []string
	Seed     uint64
	catalog  []cloud.VMType
	byName   map[string]cloud.VMType
}

// NewErnest constructs the Ernest baseline.
func NewErnest(catalog []cloud.VMType, seed uint64) *Ernest {
	return &Ernest{
		TrainVMs: []string{"t3.medium", "m5.large", "c5.large", "m5.xlarge",
			"c5.2xlarge", "m5.2xlarge", "r5.xlarge", "m5.4xlarge"},
		Seed:    seed,
		catalog: append([]cloud.VMType(nil), catalog...),
		byName:  cloud.ByName(catalog),
	}
}

// Name implements Selector.
func (e *Ernest) Name() string { return "Ernest" }

// ernestFeatures is the NSDI'16 feature map evaluated at a VM type's
// effective core count.
func ernestFeatures(dataGB, cores float64) []float64 {
	return []float64{1, dataGB / cores, math.Log(cores + 1), cores}
}

func effectiveCores(vm cloud.VMType, nodes int) float64 {
	c := float64(nodes*vm.VCPUs) * vm.CPUFactor
	if vm.Burstable {
		c *= 0.7 // Ernest sees throttled sustained throughput
	}
	return c
}

// Select implements Selector: profile the training configurations, fit the
// model with NNLS, and extrapolate to every catalog VM.
func (e *Ernest) Select(target workload.App, meter *oracle.Meter) (*Selection, error) {
	start := meter.Runs()
	nodes := meter.Sim.Config().Nodes
	var rows [][]float64
	var times []float64
	observed := map[string]float64{}
	for _, name := range e.TrainVMs {
		vm, ok := e.byName[name]
		if !ok {
			return nil, fmt.Errorf("ernest: training VM %q not in catalog", name)
		}
		prof := meter.Measure(target, vm, sim.Want{})
		rows = append(rows, ernestFeatures(target.InputGB, effectiveCores(vm, nodes)))
		times = append(times, prof.P90Seconds)
		observed[vm.Name] = prof.P90Seconds
	}
	theta, err := nnls.Solve(mat.FromRows(rows), times)
	if err != nil {
		return nil, fmt.Errorf("ernest: NNLS: %w", err)
	}
	predicted := make(map[string]float64, len(e.catalog))
	for _, vm := range e.catalog {
		if sec, ok := observed[vm.Name]; ok {
			predicted[vm.Name] = sec
			continue
		}
		f := ernestFeatures(target.InputGB, effectiveCores(vm, nodes))
		predicted[vm.Name] = mat.Dot(theta, f)
	}
	sel := rankSelection(target.Name, e.catalog, predicted)
	sel.Observed = observed
	sel.OnlineRuns = meter.Runs() - start
	return sel, nil
}

// ---------------------------------------------------------------------------
// Random search
// ---------------------------------------------------------------------------

// RandomSearch tries uniformly random VM types and keeps the best observed —
// the floor any learned system must beat.
type RandomSearch struct {
	// Budget is the number of VMs tried per target. Default 10.
	Budget  int
	Seed    uint64
	catalog []cloud.VMType
}

// NewRandomSearch constructs the random-search reference point.
func NewRandomSearch(catalog []cloud.VMType, seed uint64) *RandomSearch {
	return &RandomSearch{Budget: 10, Seed: seed, catalog: append([]cloud.VMType(nil), catalog...)}
}

// Name implements Selector.
func (r *RandomSearch) Name() string { return "Random" }

// Select implements Selector.
func (r *RandomSearch) Select(target workload.App, meter *oracle.Meter) (*Selection, error) {
	if r.Budget < 1 {
		return nil, fmt.Errorf("random: budget must be positive")
	}
	start := meter.Runs()
	src := rng.New(r.Seed ^ hashString(target.Name))
	n := r.Budget
	if n > len(r.catalog) {
		n = len(r.catalog)
	}
	observed := map[string]float64{}
	for _, i := range src.Sample(len(r.catalog), n) {
		vm := r.catalog[i]
		prof := meter.Measure(target, vm, sim.Want{})
		observed[vm.Name] = prof.P90Seconds
	}
	// Unobserved VMs get +Inf so the ranking only trusts observations.
	predicted := map[string]float64{}
	for _, vm := range r.catalog {
		if sec, ok := observed[vm.Name]; ok {
			predicted[vm.Name] = sec
		} else {
			predicted[vm.Name] = math.Inf(1)
		}
	}
	sel := rankSelection(target.Name, r.catalog, predicted)
	sel.Observed = observed
	sel.OnlineRuns = meter.Runs() - start
	return sel, nil
}

// ---------------------------------------------------------------------------
// CherryPick-lite
// ---------------------------------------------------------------------------

// CherryPickLite is a sequential Bayesian-optimization search following
// CherryPick (Alipourfard et al., NSDI'17): a Gaussian Process surrogate
// with a Matern 5/2 kernel over VM resource features, fit on log execution
// times, choosing the next configuration by Expected Improvement. Included
// as a related-work reference point and for the extension benches; the
// paper itself compares only PARIS and Ernest.
type CherryPickLite struct {
	// Budget is the total number of VMs tried per target. Default 10.
	Budget int
	// InitRuns seeds the surrogate with random picks. Default 3.
	InitRuns int
	// Xi is the EI exploration margin. Default 0.01 (log-time units).
	Xi      float64
	Seed    uint64
	catalog []cloud.VMType
}

// CherryPick's evidence-maximized hyperparameter grid.
var (
	cpLengthScales = []float64{1, 2, 4}
	cpVariances    = []float64{0.5, 2}
)

// NewCherryPickLite constructs the BO search baseline.
func NewCherryPickLite(catalog []cloud.VMType, seed uint64) *CherryPickLite {
	return &CherryPickLite{Budget: 10, InitRuns: 3, Xi: 0.01, Seed: seed,
		catalog: append([]cloud.VMType(nil), catalog...)}
}

// Name implements Selector.
func (c *CherryPickLite) Name() string { return "CherryPick-lite" }

// Select implements Selector.
func (c *CherryPickLite) Select(target workload.App, meter *oracle.Meter) (*Selection, error) {
	if c.Budget < c.InitRuns || c.InitRuns < 1 {
		return nil, fmt.Errorf("cherrypick: invalid budget %d / init %d", c.Budget, c.InitRuns)
	}
	start := meter.Runs()
	src := rng.New(c.Seed ^ hashString(target.Name))

	feats := make([][]float64, len(c.catalog))
	for i, vm := range c.catalog {
		feats[i] = vmFeatures(vm)
	}
	observed := map[int]float64{}
	var xs [][]float64
	var ys []float64 // log seconds
	try := func(i int) {
		prof := meter.Measure(target, c.catalog[i], sim.Want{})
		observed[i] = prof.P90Seconds
		xs = append(xs, feats[i])
		ys = append(ys, math.Log(prof.P90Seconds))
	}
	for _, i := range src.Sample(len(c.catalog), c.InitRuns) {
		try(i)
	}

	for len(observed) < c.Budget && len(observed) < len(c.catalog) {
		model, err := gp.SelectMatern(xs, ys, cpLengthScales, cpVariances, 1e-2)
		if err != nil {
			// Degenerate design (duplicated points): fall back to random.
			for _, i := range src.Perm(len(c.catalog)) {
				if _, done := observed[i]; !done {
					try(i)
					break
				}
			}
			continue
		}
		bestY := ys[0]
		for _, y := range ys[1:] {
			if y < bestY {
				bestY = y
			}
		}
		bestIdx, bestEI := -1, -1.0
		for i := range c.catalog {
			if _, done := observed[i]; done {
				continue
			}
			ei := model.ExpectedImprovement(feats[i], bestY, c.Xi)
			if ei > bestEI {
				bestEI, bestIdx = ei, i
			}
		}
		if bestIdx == -1 {
			break
		}
		try(bestIdx)
	}

	// Final surrogate predicts the unobserved configurations.
	predicted := make(map[string]float64, len(c.catalog))
	obsByName := map[string]float64{}
	model, err := gp.SelectMatern(xs, ys, cpLengthScales, cpVariances, 1e-2)
	for i, vm := range c.catalog {
		if sec, ok := observed[i]; ok {
			predicted[vm.Name] = sec
			obsByName[vm.Name] = sec
			continue
		}
		if err != nil {
			predicted[vm.Name] = math.Inf(1)
			continue
		}
		mean, _ := model.Predict(feats[i])
		predicted[vm.Name] = math.Exp(mean)
	}
	sel := rankSelection(target.Name, c.catalog, predicted)
	sel.Observed = obsByName
	sel.OnlineRuns = meter.Runs() - start
	return sel, nil
}

// surrogate is an inverse-distance-weighted regressor returning the
// predicted time and an uncertainty proxy (distance to the nearest
// observation).
func surrogate(feats [][]float64, observed map[int]float64, x []float64) (mean, conf float64) {
	totalW := 0.0
	nearest := math.Inf(1)
	for i, y := range observed {
		d := mat.Distance(feats[i], x)
		if d < nearest {
			nearest = d
		}
		w := 1 / (d*d + 1e-6)
		mean += w * y
		totalW += w
	}
	if totalW > 0 {
		mean /= totalW
	}
	// Scale the uncertainty by the observed spread.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range observed {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	return mean, nearest * (hi - lo + 1e-9)
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

// rankSelection builds a Selection from a predicted-time map, pinning any
// directly observed measurements over model predictions.
func rankSelection(target string, catalog []cloud.VMType, predicted map[string]float64) *Selection {
	names := make([]string, len(catalog))
	for i, vm := range catalog {
		names[i] = vm.Name
	}
	sort.Slice(names, func(a, b int) bool {
		pa, pb := predicted[names[a]], predicted[names[b]]
		if pa != pb {
			return pa < pb
		}
		return names[a] < names[b]
	})
	byName := cloud.ByName(catalog)
	return &Selection{
		Target:       target,
		Best:         byName[names[0]],
		Ranking:      names,
		PredictedSec: predicted,
	}
}

// SequentialSearch runs the Figure 12/13 protocol for a baseline: after its
// Select initialization (whose observed runs are replayed as the first
// steps), it tries VMs in its predicted ranking order, recording best-so-far
// statistics, until budget total reference runs are spent.
func SequentialSearch(sel Selector, target workload.App, catalog []cloud.VMType, budget int, meter *oracle.Meter) ([]oracle.Step, error) {
	return SequentialSearchFor(sel, target, catalog, budget, false, meter)
}

// SequentialSearchFor is SequentialSearch with an objective switch: when
// byCost is true (the Figure 13 protocol) the exploitation order follows
// predicted cost (predicted time x cluster price) instead of predicted time.
func SequentialSearchFor(sel Selector, target workload.App, catalog []cloud.VMType, budget int, byCost bool, meter *oracle.Meter) ([]oracle.Step, error) {
	s, err := sel.Select(target, meter)
	if err != nil {
		return nil, err
	}
	nodes := meter.Sim.Config().Nodes
	byName := cloud.ByName(catalog)

	ranking := append([]string(nil), s.Ranking...)
	if byCost {
		costOf := func(vm string) float64 {
			return s.PredictedSec[vm] * byName[vm].PriceHour * float64(nodes)
		}
		sort.SliceStable(ranking, func(a, b int) bool {
			ca, cb := costOf(ranking[a]), costOf(ranking[b])
			if ca != cb {
				return ca < cb
			}
			return ranking[a] < ranking[b]
		})
	}

	var steps []oracle.Step
	bestSec, bestUSD := math.Inf(1), math.Inf(1)
	record := func(vmName string, sec float64) {
		usd := sec / 3600 * byName[vmName].PriceHour * float64(nodes)
		if sec < bestSec {
			bestSec = sec
		}
		if usd < bestUSD {
			bestUSD = usd
		}
		steps = append(steps, oracle.Step{Run: len(steps) + 1, VM: vmName,
			ObservedSec: sec, ObservedUSD: usd, BestSec: bestSec, BestUSD: bestUSD})
	}
	// Replay the observations Select already paid for, deterministically.
	var initVMs []string
	for vm := range s.Observed {
		initVMs = append(initVMs, vm)
	}
	sort.Strings(initVMs)
	for _, vm := range initVMs {
		if len(steps) >= budget {
			break
		}
		record(vm, s.Observed[vm])
	}
	// Exploit the ranking.
	tried := map[string]bool{}
	for vm := range s.Observed {
		tried[vm] = true
	}
	for _, vmName := range ranking {
		if len(steps) >= budget {
			break
		}
		if tried[vmName] {
			continue
		}
		tried[vmName] = true
		prof := meter.Measure(target, byName[vmName], sim.Want{})
		record(vmName, prof.P90Seconds)
	}
	return steps, nil
}

// hashString gives a stable 64-bit FNV-1a hash for seed mixing.
func hashString(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
