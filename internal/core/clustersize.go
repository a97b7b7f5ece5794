// Cluster-size recommendation: Table 1's iteration-to-parallelism
// correlation "can infer to the choice of the number of VMs" — a positive
// correlation means the workload prefers a thin cluster (more iterations),
// a negative one a fat cluster (more parallelism). This file implements that
// inference: a correlation-guided scan order over candidate cluster sizes,
// measured through the meter like every other decision.
package core

import (
	"fmt"
	"math"
	"sort"

	"vesta/internal/metrics"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// SizeOption is one evaluated cluster size.
type SizeOption struct {
	Nodes      int
	P90Seconds float64
	CostUSD    float64
	Measured   bool // false when pruned by the correlation-guided early stop
}

// SizeRecommendation is the outcome of RecommendClusterSize.
type SizeRecommendation struct {
	Target string
	VM     string
	// BestByTime and BestByCost are the recommended node counts.
	BestByTime int
	BestByCost int
	// Options lists every candidate size in ascending node order.
	Options []SizeOption
	// Thin reports the iteration-to-parallelism reading: true when the
	// workload prefers a thin cluster.
	Thin bool
	// Runs is the number of reference runs spent.
	Runs int
}

// RecommendClusterSize scans candidate cluster sizes for the target on the
// given VM type. The iteration-to-parallelism correlation from the sandbox
// run decides the scan direction (thin-first or fat-first), and scanning
// stops early once execution time degrades twice in a row — so strongly
// thin- or fat-leaning workloads pay fewer measurement runs.
func (s *System) RecommendClusterSize(target workload.App, vmName string, sizes []int, meter *oracle.Meter) (*SizeRecommendation, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("vesta: no candidate cluster sizes")
	}
	vm, ok := s.byName[vmName]
	if !ok {
		return nil, fmt.Errorf("vesta: VM type %q not in catalog", vmName)
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	for _, n := range sorted {
		if n < 1 {
			return nil, fmt.Errorf("vesta: invalid cluster size %d", n)
		}
	}

	startRuns := meter.Runs()

	// Read the iteration-to-parallelism correlation from a sandbox run at
	// the default cluster size.
	sp := meter.Measure(target, s.byName[s.cfg.SandboxVM], sim.Want{Features: metrics.AllFeatures})
	thin := sp.Corr[metrics.IterationToParallelism] > 0

	// Thin-leaning workloads are scanned small-to-large (their optimum sits
	// low); fat-leaning ones large-to-small.
	order := append([]int(nil), sorted...)
	if !thin {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}

	results := map[int]sim.Profile{}
	degraded := 0
	var bestSec float64 = math.Inf(1)
	for _, n := range order {
		cfg := meter.Sim.Config()
		cfg.Nodes = n
		sized := sim.New(cfg)
		// Account the run on the shared meter: every cluster shape costs a
		// reference run.
		p := meter.MeasureOn(sized, target, vm, sim.Want{})
		results[n] = p
		if p.P90Seconds < bestSec {
			bestSec = p.P90Seconds
			degraded = 0
		} else {
			degraded++
			if degraded >= 2 {
				break // two consecutive degradations: past the optimum
			}
		}
	}

	rec := &SizeRecommendation{Target: target.Name, VM: vmName, Thin: thin}
	bestTime, bestCost := -1, -1
	var bestTimeV, bestCostV float64
	for _, n := range sorted {
		opt := SizeOption{Nodes: n}
		if p, ok := results[n]; ok {
			opt.Measured = true
			opt.P90Seconds = p.P90Seconds
			opt.CostUSD = p.CostUSD
			if bestTime == -1 || p.P90Seconds < bestTimeV {
				bestTime, bestTimeV = n, p.P90Seconds
			}
			if bestCost == -1 || p.CostUSD < bestCostV {
				bestCost, bestCostV = n, p.CostUSD
			}
		}
		rec.Options = append(rec.Options, opt)
	}
	rec.BestByTime = bestTime
	rec.BestByCost = bestCost
	rec.Runs = meter.Runs() - startRuns
	return rec, nil
}
