package metrics_test

import (
	"math"
	"testing"

	"vesta/internal/chaos"
	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/rng"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// keptSeries is SeriesOf the PCA-kept feature set of the default training
// seeds (disk-to-network, iteration-to-parallelism, data-to-cycle,
// disk-to-synchronization).
const keptSeries = 1<<metrics.DiskRead | 1<<metrics.DiskWrite | 1<<metrics.NetSend | 1<<metrics.NetRecv | 1<<metrics.TasksSyncStep

func TestSeriesOf(t *testing.T) {
	if got := metrics.SeriesOf(metrics.AllFeatures); got != metrics.CorrelationSeries {
		t.Fatalf("SeriesOf(AllFeatures) = %b, CorrelationSeries = %b", got, metrics.CorrelationSeries)
	}
	if got := metrics.SeriesOf(metrics.FeaturesOf([]int{2, 5, 7, 8})); got != keptSeries {
		t.Fatalf("SeriesOf({2,5,7,8}) = %b, want the five disk, network and sync series %b", got, keptSeries)
	}
	for _, i := range []int{metrics.IterationToParallelism, metrics.DataToComputation, metrics.DataToCycle} {
		if got := metrics.SeriesOf(1 << i); got != 0 {
			t.Errorf("execution feature %s reads series %b", metrics.CorrelationNames[i], got)
		}
	}
	if metrics.SeriesOf(0) != 0 {
		t.Fatal("the empty feature set reads series")
	}
	if metrics.FeaturesOf([]int{-1, 3, metrics.NumCorrelations}) != 1<<3 {
		t.Fatal("FeaturesOf kept an index outside the vector")
	}
}

// simTraces returns sim traces covering every shape a correlation sees: a
// single sample, the maxTraceSamples+1 cap, a killed run's partial trace,
// and collector dropout both survivable and past the minimum of complete
// samples. Each is the trace of a one-repeat measurement, whose only run
// uses the measurement's seed, and comes with its run's execution stats.
func simTraces(t testing.TB) map[string]sim.Profile {
	t.Helper()
	cat := cloud.ByName(cloud.Catalog120())
	vm := cat["m5.xlarge"]
	lr, err := workload.ByName("Spark-lr")
	if err != nil {
		t.Fatal(err)
	}
	traced := sim.Want{Trace: true}
	out := map[string]sim.Profile{
		"clean":    sim.New(sim.Config{Repeats: 1}).Measure(lr, vm, 3, traced),
		"1-sample": sim.New(sim.Config{Repeats: 1, SampleSec: 1e9}).Measure(lr, vm, 3, traced),
	}
	for _, a := range workload.All() {
		if p := sim.New(sim.Config{Repeats: 1, SampleSec: 0.01}).Measure(a, vm, 5, traced); p.Trace.Len() == 513 {
			out["513-samples"] = p
			break
		}
	}
	// A killed run's trace is the prefix its samples reached; a measurement
	// keeps only completed runs' traces, so the shape is cut from a clean
	// one.
	partial := out["clean"]
	cut := *partial.Trace
	cut.Partial = true
	for id, ser := range cut.Series {
		cut.Series[id] = ser[:len(ser)/2]
	}
	partial.Trace = &cut
	out["partial"] = partial
	checked := func(rates chaos.Rates, want func(sim.Profile, error) bool) (sim.Profile, bool) {
		for seed := uint64(1); seed < 200; seed++ {
			s := sim.New(sim.Config{Repeats: 1, Chaos: chaos.NewPlan(seed, rates)})
			if p, err := s.MeasureAttempt(lr, vm, seed, 0, traced); want(p, err) {
				return p, true
			}
		}
		return sim.Profile{}, false
	}
	if p, ok := checked(chaos.Rates{SamplerDropout: 0.3}, func(p sim.Profile, err error) bool {
		return err == nil && p.Trace.Dropped > 0 && p.Trace.Len()-p.Trace.Dropped >= 3
	}); ok {
		out["dropout"] = p
	}
	if p, ok := checked(chaos.Rates{SamplerDropout: 0.97}, func(p sim.Profile, err error) bool {
		return err == nil && p.Trace.Len()-p.Trace.Dropped < 3
	}); ok {
		out["dropout-corrupt"] = p
	}
	for _, name := range []string{"1-sample", "513-samples", "dropout", "dropout-corrupt"} {
		if _, ok := out[name]; !ok {
			t.Fatalf("no sim trace of shape %s", name)
		}
	}
	if n := out["1-sample"].Trace.Len(); n != 1 {
		t.Fatalf("1-sample trace has %d samples", n)
	}
	if n := out["partial"].Trace.Len(); n < 5 {
		t.Fatalf("partial trace has %d samples", n)
	}
	return out
}

// sameOn reports the first component in feats where got and want differ
// bit for bit, or -1.
func sameOn(got, want metrics.CorrVector, feats metrics.FeatureSet) int {
	for i := range got {
		if feats.Has(i) && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// leanCopy returns a copy of tr holding only the series in keep.
func leanCopy(tr *metrics.Trace, keep metrics.SeriesSet) *metrics.Trace {
	out := *tr
	for id := range out.Series {
		if keep.Has(metrics.SeriesID(id)) {
			out.Series[id] = append([]float64(nil), tr.Series[id]...)
		} else {
			out.Series[id] = nil
		}
	}
	return &out
}

// TestCorrelationsOfMatchesCorrelations: for every non-empty feature set and
// every sim trace shape, CorrelationsOf equals Correlations bit for bit on
// the requested components and leaves the others NaN, on the full trace and
// on the lean trace holding SeriesOf(feats) alone.
func TestCorrelationsOfMatchesCorrelations(t *testing.T) {
	for name, r := range simTraces(t) {
		want := metrics.Correlations(r.Trace, r.Exec)
		for feats := metrics.FeatureSet(1); feats <= metrics.AllFeatures; feats++ {
			got := metrics.CorrelationsOf(r.Trace, r.Exec, feats)
			if i := sameOn(got, want, feats); i >= 0 {
				t.Fatalf("%s feats %010b: %s = %v, Correlations gives %v",
					name, feats, metrics.CorrelationNames[i], got[i], want[i])
			}
			for i, v := range got {
				if !feats.Has(i) && !math.IsNaN(v) {
					t.Fatalf("%s feats %010b: unrequested %s = %v, want NaN", name, feats, metrics.CorrelationNames[i], v)
				}
			}
			if ser := metrics.SeriesOf(feats); ser != 0 || r.Trace.Dropped == 0 {
				// A trace with no series present carries no samples, so it
				// cannot show the dropout gate; every other lean trace must.
				lean := metrics.CorrelationsOf(leanCopy(r.Trace, ser), r.Exec, feats)
				if i := sameOn(lean, want, feats); i >= 0 {
					t.Fatalf("%s feats %010b: lean trace %s = %v, Correlations gives %v",
						name, feats, metrics.CorrelationNames[i], lean[i], want[i])
				}
			}
		}
	}
}

// TestSeriesOfIsExact generalizes TestCorrelationSeriesIsExact to every
// feature set: perturbing or removing a series outside SeriesOf(feats)
// changes no requested bit (on clean and dropout-damaged traces alike), and
// perturbing a series a single feature reads changes that feature.
func TestSeriesOfIsExact(t *testing.T) {
	traces := simTraces(t)
	for _, name := range []string{"clean", "dropout", "partial"} {
		r := traces[name]
		base := make([]metrics.CorrVector, metrics.AllFeatures+1)
		for feats := metrics.FeatureSet(1); feats <= metrics.AllFeatures; feats++ {
			base[feats] = metrics.CorrelationsOf(r.Trace, r.Exec, feats)
		}
		for id := metrics.SeriesID(0); id < metrics.NumSeries; id++ {
			tr := leanCopy(r.Trace, metrics.AllSeries)
			src := rng.New(uint64(id) + 100)
			for i, v := range tr.Series[id] {
				if !math.IsNaN(v) {
					tr.Series[id][i] = v + src.Norm(0, 0.2)
				}
			}
			removed := leanCopy(r.Trace, metrics.AllSeries&^(1<<id))
			for feats := metrics.FeatureSet(1); feats <= metrics.AllFeatures; feats++ {
				if metrics.SeriesOf(feats).Has(id) {
					continue
				}
				if i := sameOn(metrics.CorrelationsOf(tr, r.Exec, feats), base[feats], feats); i >= 0 {
					t.Fatalf("%s: perturbing %v (outside SeriesOf(%010b)) changed %s", name, id, feats, metrics.CorrelationNames[i])
				}
				if i := sameOn(metrics.CorrelationsOf(removed, r.Exec, feats), base[feats], feats); i >= 0 {
					t.Fatalf("%s: removing %v (outside SeriesOf(%010b)) changed %s", name, id, feats, metrics.CorrelationNames[i])
				}
			}
			for f := 0; f < metrics.NumCorrelations; f++ {
				single := metrics.FeatureSet(1) << f
				if !metrics.SeriesOf(single).Has(id) {
					continue
				}
				if sameOn(metrics.CorrelationsOf(tr, r.Exec, single), base[single], single) < 0 {
					t.Errorf("%s: perturbing %v left %s, which reads it, unchanged", name, id, metrics.CorrelationNames[f])
				}
			}
		}
	}
}

// TestCorrVectorValidOn: ValidOn looks only at the requested components, and
// Valid is ValidOn every feature.
func TestCorrVectorValidOn(t *testing.T) {
	var c metrics.CorrVector
	c[metrics.DiskToNetwork] = math.NaN()
	c[metrics.CPUToMemory] = 1.5
	if c.Valid() || c.ValidOn(metrics.AllFeatures) {
		t.Fatal("vector with NaN and out-of-range components is valid")
	}
	if !c.ValidOn(metrics.FeaturesOf([]int{5, 7, 8})) {
		t.Fatal("bad components outside the set made the vector invalid on it")
	}
	if c.ValidOn(1<<metrics.DiskToNetwork) || c.ValidOn(1<<metrics.CPUToMemory) {
		t.Fatal("a bad requested component went unnoticed")
	}
	if !c.ValidOn(0) {
		t.Fatal("the empty set must be valid on any vector")
	}
}

// FuzzCorrelationsOf: on any trace whose present series have equal lengths,
// CorrelationsOf never panics, equals Correlations bit for bit on the
// requested components and leaves the others NaN. With whole-tick dropout
// (the collector's contract) the lean trace of SeriesOf(feats) agrees too.
func FuzzCorrelationsOf(f *testing.F) {
	f.Add(uint16(metrics.AllFeatures), uint16(100), uint64(1), uint8(0), false, uint8(0), 1.0)
	f.Add(uint16(0b0110100100), uint16(60), uint64(2), uint8(7), false, uint8(3), 0.5)
	f.Add(uint16(0b0010100000), uint16(5), uint64(3), uint8(2), false, uint8(0), 2.0)
	f.Add(uint16(0b0000000001), uint16(1), uint64(4), uint8(0), false, uint8(0), 0.0)
	f.Add(uint16(0b1000010011), uint16(1100), uint64(5), uint8(9), true, uint8(1), 3.0)
	f.Add(uint16(0b0000001000), uint16(0), uint64(6), uint8(1), false, uint8(0), -1.0)
	f.Fuzz(func(t *testing.T, mask, n uint16, seed uint64, nanEvery uint8, scattered bool, dropped uint8, scale float64) {
		feats := metrics.FeatureSet(mask) & metrics.AllFeatures
		samples := int(n % 1100)
		src := rng.New(seed)
		tr := &metrics.Trace{SampleSec: 5, Dropped: int(dropped % 4)}
		for id := range tr.Series {
			tr.Series[id] = make([]float64, samples)
			for i := range tr.Series[id] {
				tr.Series[id][i] = src.Float64() * scale
			}
		}
		for i := 0; nanEvery > 0 && i < samples; i += int(nanEvery) {
			if scattered {
				tr.Series[src.Intn(int(metrics.NumSeries))][i] = math.NaN()
				continue
			}
			for id := range tr.Series {
				tr.Series[id][i] = math.NaN()
			}
		}
		ex := metrics.ExecStats{
			TasksCompute: src.Float64() * scale, TasksComm: src.Float64() * scale,
			TasksSync: src.Float64() * scale, DataPerCycle: src.Float64() * scale,
			DataPerIteration: src.Float64() * scale, DataPerParallelism: src.Float64() * scale,
		}
		want := metrics.Correlations(tr, ex)
		got := metrics.CorrelationsOf(tr, ex, feats)
		if i := sameOn(got, want, feats); i >= 0 {
			t.Fatalf("feats %010b: %s = %v, Correlations gives %v", feats, metrics.CorrelationNames[i], got[i], want[i])
		}
		for i, v := range got {
			if !feats.Has(i) && !math.IsNaN(v) {
				t.Fatalf("feats %010b: unrequested %s = %v", feats, metrics.CorrelationNames[i], v)
			}
		}
		ser := metrics.SeriesOf(feats)
		if scattered || (ser == 0 && (tr.Dropped > 0 || (nanEvery > 0 && samples > 0))) {
			return
		}
		if i := sameOn(metrics.CorrelationsOf(leanCopy(tr, ser), ex, feats), want, feats); i >= 0 {
			t.Fatalf("feats %010b: lean trace differs at %s", feats, metrics.CorrelationNames[i])
		}
	})
}
