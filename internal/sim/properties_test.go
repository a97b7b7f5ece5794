package sim

import (
	"math"
	"testing"
	"testing/quick"

	"vesta/internal/cloud"
	"vesta/internal/rng"
	"vesta/internal/workload"
)

// Property tests on the execution model's physical invariants, fuzzing over
// synthesized workloads and random catalog entries.

func randomApp(seed uint64) workload.App {
	src := rng.New(seed)
	fws := []workload.Framework{workload.Hadoop, workload.Hive, workload.Spark}
	return workload.Synthesize(fws[src.Intn(3)], int(seed%1000), src)
}

func TestPropPositiveFiniteTimes(t *testing.T) {
	f := func(seed uint64) bool {
		app := randomApp(seed)
		vm := catalog[int(seed%uint64(len(catalog)))]
		s := New(Config{Repeats: 2})
		r := s.run(app, vm, seed)
		return r.Seconds > 0 && !math.IsInf(r.Seconds, 0) && !math.IsNaN(r.Seconds) &&
			r.CostUSD > 0 && !math.IsNaN(r.CostUSD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropTracesAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		app := randomApp(seed)
		vm := catalog[int((seed/7)%uint64(len(catalog)))]
		s := New(Config{Repeats: 2})
		r := s.run(app, vm, seed)
		return r.Trace.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMoreDataNeverFaster(t *testing.T) {
	// Scaling the input up must not reduce execution time (same seed, so
	// noise cancels in direction).
	f := func(seed uint64) bool {
		app := randomApp(seed)
		vm := catalog[int((seed/3)%uint64(len(catalog)))]
		s := New(Config{Repeats: 1})
		small := s.run(app, vm, seed).Seconds
		big := s.run(app.WithInput(app.InputGB*2), vm, seed).Seconds
		return big >= small*0.98 // allow sub-percent numeric wiggle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropFasterCPUSameFamilyNeverSlower(t *testing.T) {
	// Within a family, the next size up (more cores, same ratios) must not
	// make a compute-bound workload slower by more than the coordination
	// cost explains (bounded slack).
	a, err := workload.ByName("Spark-lr")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Repeats: 2})
	for _, fam := range []string{"M5", "C5", "R5"} {
		var prev float64
		for i, vm := range famTypes(fam) {
			sec := s.Measure(a, vm, 1, Want{}).P90Seconds
			if i > 0 && sec > prev*1.35 {
				t.Fatalf("%s: size step made Spark-lr %.2fx slower", vm.Name, sec/prev)
			}
			prev = sec
		}
	}
}

func famTypes(fam string) []cloud.VMType {
	var out []cloud.VMType
	for _, vm := range catalog {
		if vm.Family == fam {
			out = append(out, vm)
		}
	}
	return out
}

func TestPropBurstableNeverFasterThanSibling(t *testing.T) {
	// A burstable type must never beat the same-size M5 on a long job.
	f := func(seed uint64) bool {
		app := randomApp(seed)
		if app.Demand.Streaming {
			return true // ingest-bound; CPU throttle may not bind
		}
		// Compare the repeated-run P90s; run-to-run noise is independent
		// per VM, so leave generous slack and rely on the trend.
		s := New(Config{Repeats: 6})
		burst := s.Measure(app, byName["t3.2xlarge"], seed, Want{}).P90Seconds
		std := s.Measure(app, byName["m5.2xlarge"], seed, Want{}).P90Seconds
		return burst >= std*0.8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
