// ArrowLite: a low-level-metric-augmented sequential search in the spirit of
// Arrow (Hsu et al., ICDCS'18), which the paper's related work describes as
// augmenting CherryPick's Bayesian optimization with low-level performance
// metrics to cut search cost. Included as a related-work reference point and
// for the extension experiments; the paper itself compares only PARIS and
// Ernest.
package baselines

import (
	"fmt"
	"math"

	"vesta/internal/cloud"
	"vesta/internal/oracle"
	"vesta/internal/rng"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// ArrowLite searches sequentially like CherryPickLite, but augments the
// surrogate's feature space with the low-level metric fingerprint observed
// on each tried VM. Configurations whose observed fingerprints show slack
// (idle CPU, unsaturated disk) steer the search toward cheaper shapes.
type ArrowLite struct {
	// Budget is the total number of VMs tried per target. Default 10.
	Budget int
	// InitRuns seeds the surrogate with random picks. Default 2 (Arrow's
	// selling point is needing fewer cold-start samples than CherryPick).
	InitRuns int
	// Kappa is the exploration weight. Default 0.3.
	Kappa   float64
	Seed    uint64
	catalog []cloud.VMType
}

// NewArrowLite constructs the augmented-search baseline.
func NewArrowLite(catalog []cloud.VMType, seed uint64) *ArrowLite {
	return &ArrowLite{Budget: 10, InitRuns: 2, Kappa: 0.3, Seed: seed,
		catalog: append([]cloud.VMType(nil), catalog...)}
}

// Name implements Selector.
func (a *ArrowLite) Name() string { return "Arrow-lite" }

// Select implements Selector.
func (a *ArrowLite) Select(target workload.App, meter *oracle.Meter) (*Selection, error) {
	if a.Budget < a.InitRuns || a.InitRuns < 1 {
		return nil, fmt.Errorf("arrow: invalid budget %d / init %d", a.Budget, a.InitRuns)
	}
	start := meter.Runs()
	src := rng.New(a.Seed ^ hashString(target.Name))

	feats := make([][]float64, len(a.catalog))
	for i, vm := range a.catalog {
		feats[i] = vmFeatures(vm)
	}

	observed := map[int]float64{}
	// bottleneck[i] holds the low-level augmentation derived from the run's
	// fingerprint: how CPU-bound vs IO-bound the workload looked there.
	type augmentation struct {
		cpuBound  float64 // mean cpu.user
		diskBound float64 // mean disk activity
		netBound  float64 // mean network activity
		memBound  float64 // mean RAM usage
	}
	augment := map[int]augmentation{}

	try := func(i int) {
		prof := meter.Measure(target, a.catalog[i], sim.Want{Trace: true})
		observed[i] = prof.P90Seconds
		fp := fingerprint(prof)
		// Indices follow metrics.SeriesID: 0 cpu.user, 4 mem.ram,
		// 8/9 disk read/write, 11/12 net send/recv.
		augment[i] = augmentation{
			cpuBound:  fp[0],
			memBound:  fp[4],
			diskBound: (fp[8] + fp[9]) / 2,
			netBound:  (fp[11] + fp[12]) / 2,
		}
	}
	for _, i := range src.Sample(len(a.catalog), a.InitRuns) {
		try(i)
	}

	// Aggregate bottleneck profile across the observations so far.
	bottleneck := func() augmentation {
		var agg augmentation
		for _, g := range augment {
			agg.cpuBound += g.cpuBound
			agg.memBound += g.memBound
			agg.diskBound += g.diskBound
			agg.netBound += g.netBound
		}
		n := float64(len(augment))
		agg.cpuBound /= n
		agg.memBound /= n
		agg.diskBound /= n
		agg.netBound /= n
		return agg
	}

	for len(observed) < a.Budget && len(observed) < len(a.catalog) {
		agg := bottleneck()
		bestIdx, bestAcq := -1, math.Inf(1)
		for i, vm := range a.catalog {
			if _, done := observed[i]; done {
				continue
			}
			mean, conf := surrogate(feats, observed, feats[i])
			// Low-level augmentation: bias toward resource shapes that
			// relieve the observed bottleneck — more per-core speed when
			// CPU-bound, more disk bandwidth when disk-bound, and so on.
			relief := agg.cpuBound*vm.CPUFactor +
				agg.diskBound*math.Min(vm.DiskMBps/960, 2) +
				agg.netBound*math.Min(vm.NetworkGbps/10, 2) +
				agg.memBound*math.Min(vm.MemPerVCPU()/8, 2)
			acq := mean - a.Kappa*conf - 0.1*mean*relief
			if acq < bestAcq {
				bestAcq, bestIdx = acq, i
			}
		}
		if bestIdx == -1 {
			break
		}
		try(bestIdx)
	}

	predicted := make(map[string]float64, len(a.catalog))
	obsByName := map[string]float64{}
	for i, vm := range a.catalog {
		if sec, ok := observed[i]; ok {
			predicted[vm.Name] = sec
			obsByName[vm.Name] = sec
			continue
		}
		mean, _ := surrogate(feats, observed, feats[i])
		predicted[vm.Name] = mean
	}
	sel := rankSelection(target.Name, a.catalog, predicted)
	sel.Observed = obsByName
	sel.OnlineRuns = meter.Runs() - start
	return sel, nil
}
