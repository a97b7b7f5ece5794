// Package latency implements the extension sketched in the paper's
// conclusion: for latency-sensitive (streaming) workloads, execution time is
// the wrong practical metric — "latency and throughput are important
// variables for measuring the performance of latency-sensitive workloads.
// What we need to do is to choose appropriate metrics according to workload
// characteristics and train new predictive function on them."
//
// The extension reuses Vesta's existing knowledge unchanged: the bipartite
// graph still places the target in label space and ranks VM types by
// transferred affinity; only the *calibration* changes — the sandbox and
// random-initialization runs anchor a predictive function for P90 latency
// instead of execution time, and the ranking is re-scored by predicted
// latency.
package latency

import (
	"fmt"
	"math"
	"sort"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/stats"
	"vesta/internal/workload"
)

// Result is a latency-objective selection.
type Result struct {
	Target string
	// Best is the VM type with the lowest predicted P90 latency.
	Best string
	// Ranking lists VM names by ascending predicted latency.
	Ranking []string
	// PredictedLatencyMS maps VM name to predicted P90 latency.
	PredictedLatencyMS map[string]float64
	// ObservedLatencyMS holds the measured initialization runs.
	ObservedLatencyMS map[string]float64
	// OnlineRuns is the reference-VM count charged.
	OnlineRuns int
	// Converged mirrors the underlying transfer's convergence flag.
	Converged bool
}

// Select picks the best VM type for a streaming target by predicted P90
// latency, reusing sys's offline knowledge. It errors on batch workloads —
// the base execution-time predictor is the right tool there.
func Select(sys *core.System, target workload.App, meter *oracle.Meter) (*Result, error) {
	if !target.Demand.Streaming {
		return nil, fmt.Errorf("latency: %s is a batch workload; use the execution-time predictor", target.Name)
	}
	pred, err := sys.PredictOnline(target, meter)
	if err != nil {
		return nil, err
	}

	// Fit latency = a * score^(-b) on the observed runs, exactly like the
	// base system's time calibration but against the latency metric.
	scoreOf := map[string]float64{}
	for _, r := range pred.Ranking {
		scoreOf[r.VM] = r.Score
	}
	var lx, ly []float64
	for vm, lat := range pred.ObservedLatencyMS {
		if sc := scoreOf[vm]; sc > 1e-9 && lat > 0 {
			lx = append(lx, math.Log(sc))
			ly = append(ly, math.Log(lat))
		}
	}
	if len(lx) == 0 {
		return nil, fmt.Errorf("latency: no usable latency observations for %s", target.Name)
	}
	a, b := math.Exp(ly[0]+lx[0]), 1.0
	if len(lx) >= 2 && stats.StdDev(lx) > 1e-6 {
		b = -stats.Covariance(lx, ly) / stats.Variance(lx)
		b = math.Max(0.25, math.Min(3, b))
		a = math.Exp(stats.Mean(ly) + b*stats.Mean(lx))
	}

	predicted := make(map[string]float64, len(pred.Ranking))
	names := make([]string, 0, len(pred.Ranking))
	for _, r := range pred.Ranking {
		names = append(names, r.VM)
		if r.Score > 1e-9 {
			predicted[r.VM] = a * math.Pow(r.Score, -b)
		} else {
			predicted[r.VM] = math.Inf(1)
		}
	}
	for vm, lat := range pred.ObservedLatencyMS {
		if lat > 0 {
			predicted[vm] = lat
		}
	}
	sort.Slice(names, func(i, j int) bool {
		pi, pj := predicted[names[i]], predicted[names[j]]
		if pi != pj {
			return pi < pj
		}
		return names[i] < names[j]
	})

	return &Result{
		Target:             target.Name,
		Best:               names[0],
		Ranking:            names,
		PredictedLatencyMS: predicted,
		ObservedLatencyMS:  pred.ObservedLatencyMS,
		OnlineRuns:         pred.OnlineRuns,
		Converged:          pred.Converged,
	}, nil
}

// ExhaustiveBest profiles the target on every catalog VM and returns the
// name and value of the lowest P90 latency — the brute-force ground truth
// for the extension's evaluation (the latency analogue of the paper's
// exhaustive "best" definition in Section 5.2).
func ExhaustiveBest(s *sim.Simulator, target workload.App, catalog []cloud.VMType, seed uint64) (string, float64, error) {
	if !target.Demand.Streaming {
		return "", 0, fmt.Errorf("latency: %s is a batch workload", target.Name)
	}
	bestVM, bestLat := "", math.Inf(1)
	for _, vm := range catalog {
		p := s.ProfileTimed(target, vm, seed)
		if p.P90LatencyMS < bestLat || (p.P90LatencyMS == bestLat && vm.Name < bestVM) {
			bestVM, bestLat = vm.Name, p.P90LatencyMS
		}
	}
	return bestVM, bestLat, nil
}
