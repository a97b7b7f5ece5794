package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. The two tables below are the
// benchmark's metric contract: BENCHMARK.json at the repository root must
// list exactly these names, units, directions and bounds (perf_test.go
// checks that the two never drift apart).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a client of the fleet sees, reported by untraced
// runs. Bound is the share of the parent's median by which a change may make
// the metric worse before it counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"good_frac", "ratio", "higher", 0.05},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"regret_pct", "%", "lower", 0.02},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer are the single-layer metrics of a traced run (trace 1). Counters
// come from the layers' own Stats over the untraced window of the same run;
// timings come from spans recorded around each layer's public seam during
// the traced window. A metric whose layer a workload does not exercise
// reads 0 on that workload.
var perLayer = []metricDef{
	{"harness.late_p50_ms", "ms", "lower", 0},
	{"harness.late_p99_ms", "ms", "lower", 0},
	{"latency.predict_p50_ms", "ms", "lower", 0},
	{"latency.predict_p99_ms", "ms", "lower", 0},
	{"latency.write_p50_ms", "ms", "lower", 0},
	{"latency.write_p90_ms", "ms", "lower", 0},
	{"router.self_p50_us", "us", "lower", 0},
	{"router.self_p99_us", "us", "lower", 0},
	{"router.stale_skips", "count", "lower", 0},
	{"router.failovers", "count", "lower", 0},
	{"http.handler_p50_us", "us", "lower", 0},
	{"http.handler_p99_us", "us", "lower", 0},
	{"net.client_self_p50_us", "us", "lower", 0},
	{"serve.hit_rate", "ratio", "higher", 0},
	{"serve.coalesced", "count", "higher", 0},
	{"serve.mean_batch", "count", "higher", 0},
	{"serve.max_batch", "count", "higher", 0},
	{"serve.rejects", "count", "lower", 0},
	{"serve.canceled_frac", "ratio", "lower", 0},
	{"serve.profile_hit_rate", "ratio", "higher", 0},
	{"serve.wait_p50_ms", "ms", "lower", 0},
	{"serve.wait_p99_ms", "ms", "lower", 0},
	{"core.measure_p50_ms", "ms", "lower", 0},
	{"core.solve_p50_ms", "ms", "lower", 0},
	{"core.profiles_per_req", "count", "lower", 0},
	{"wal.append_p50_ms", "ms", "lower", 0},
	{"wal.append_p90_ms", "ms", "lower", 0},
	{"wal.committed_p90_ms", "ms", "lower", 0},
	{"wal.checkpoints", "count", "lower", 0},
	{"replicate.ship_p50_us", "us", "lower", 0},
	{"replicate.frames_shipped", "count", "higher", 0},
	{"replicate.bootstraps", "count", "lower", 0},
	{"replicate.apply_p50_ms", "ms", "lower", 0},
	{"replicate.apply_p90_ms", "ms", "lower", 0},
	{"replicate.fetch_failures", "count", "lower", 0},
	{"replicate.lag_p50_ms", "ms", "lower", 0},
	{"replicate.lag_p90_ms", "ms", "lower", 0},
	{"serve.absorb_compute_p50_ms", "ms", "lower", 0},
	{"serve.catalog_compute_p50_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.stage_sum_ms", "ms", "lower", 0},
	{"trace.gap_ms", "ms", "lower", 0},
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill copies the named values of defs into a metrics map, in the units the
// table declares. Non-finite values (an empty sample, a division by zero)
// are reported as 0 so the line stays valid JSON; the correctness gate
// separately rejects a non-finite regret.
func fill(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of samples,
// sorting them in place; 0 for an empty sample. Exact, not bucketed: the
// benchmark retains every sample it times.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return samples[i]
}

// median returns the median of xs, sorting them in place; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
