package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"vesta/internal/chaos"
	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/workload"
)

func faultTestApp() workload.App {
	apps := workload.BySet(workload.SourceTraining)
	if len(apps) == 0 {
		panic("no training apps")
	}
	return apps[0]
}

func faultTestVM(t *testing.T) cloud.VMType {
	t.Helper()
	vm, ok := cloud.ByName(cloud.Catalog())["m5.xlarge"]
	if !ok {
		t.Fatal("m5.xlarge not in catalog")
	}
	return vm
}

// TestCheckedPathMatchesUncheckedWithoutChaos is the byte-identity
// acceptance check at the sim layer: nil plan => a checked run equals the
// unchecked one and MeasureAttempt == Measure, bit for bit.
func TestCheckedPathMatchesUncheckedWithoutChaos(t *testing.T) {
	app, vm := faultTestApp(), faultTestVM(t)
	for _, cfg := range []Config{{}, {Chaos: chaos.NewPlan(1, chaos.Rates{})}} {
		s := New(cfg)
		want := s.run(app, vm, 42)
		got, err := s.runAttempt(app, vm, 42, 0)
		if err != nil {
			t.Fatalf("checked run failed without faults: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("checked run != unchecked run with cfg %+v", cfg)
		}
		wantP := s.Measure(app, vm, 42, full)
		gotP, err := s.MeasureAttempt(app, vm, 42, 0, full)
		if err != nil {
			t.Fatalf("MeasureAttempt failed without faults: %v", err)
		}
		if !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("MeasureAttempt != Measure with cfg %+v", cfg)
		}
	}
}

// TestChaosDoesNotPerturbUncheckedPaths: enabling a plan must leave the
// ground-truth paths untouched.
func TestChaosDoesNotPerturbUncheckedPaths(t *testing.T) {
	app, vm := faultTestApp(), faultTestVM(t)
	clean := New(Config{})
	chaotic := New(Config{Chaos: chaos.NewPlan(3, chaos.Uniform(0.5))})
	if !reflect.DeepEqual(chaotic.run(app, vm, 9), clean.run(app, vm, 9)) {
		t.Fatal("unchecked run differs when a chaos plan is configured")
	}
	if !reflect.DeepEqual(chaotic.Measure(app, vm, 9, full), clean.Measure(app, vm, 9, full)) {
		t.Fatal("Measure differs when a chaos plan is configured")
	}
}

// TestRetrySurvivorMatchesOriginalPhysics: a run killed at attempt 0 that
// survives at a later attempt must report the measurements the fault-free
// run would have.
func TestRetrySurvivorMatchesOriginalPhysics(t *testing.T) {
	app, vm := faultTestApp(), faultTestVM(t)
	clean := New(Config{})
	s := New(Config{Chaos: chaos.NewPlan(17, chaos.Rates{SpotPreemption: 0.6})})
	found := false
	for seed := uint64(0); seed < 200 && !found; seed++ {
		if _, err := s.runAttempt(app, vm, seed, 0); err == nil {
			continue
		}
		for attempt := uint64(1); attempt < 10; attempt++ {
			r, err := s.runAttempt(app, vm, seed, attempt)
			if err != nil {
				continue
			}
			want := clean.run(app, vm, seed)
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("seed %d attempt %d: surviving retry differs from fault-free run", seed, attempt)
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no (killed, then survived) pair found in 200 seeds at rate 0.6")
	}
}

func TestPreemptedRunIsPartialAndCheaper(t *testing.T) {
	app, vm := faultTestApp(), faultTestVM(t)
	clean := New(Config{})
	s := New(Config{Chaos: chaos.NewPlan(21, chaos.Rates{SpotPreemption: 1})})
	r, err := s.runAttempt(app, vm, 5, 0)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %v", err)
	}
	if re.Fault != chaos.SpotPreemption {
		t.Fatalf("fault = %v, want spot-preemption", re.Fault)
	}
	if r.Trace == nil || !r.Trace.Partial {
		t.Fatal("killed run's trace not marked Partial")
	}
	whole := clean.run(app, vm, 5)
	if r.Seconds >= whole.Seconds {
		t.Fatalf("preempted run (%.1fs) not shorter than full run (%.1fs)", r.Seconds, whole.Seconds)
	}
	if re.WastedSec != r.Seconds {
		t.Fatalf("WastedSec %.1f != partial Seconds %.1f", re.WastedSec, r.Seconds)
	}
	if err := r.Trace.Validate(); err != nil {
		t.Fatalf("partial trace invalid: %v", err)
	}
}

func TestLaunchFailureWastesOnlyOverhead(t *testing.T) {
	app, vm := faultTestApp(), faultTestVM(t)
	s := New(Config{Chaos: chaos.NewPlan(8, chaos.Rates{LaunchFailure: 1})})
	r, err := s.runAttempt(app, vm, 3, 0)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %v", err)
	}
	if re.Fault != chaos.LaunchFailure {
		t.Fatalf("fault = %v, want launch-failure", re.Fault)
	}
	if r.Trace != nil {
		t.Fatal("launch failure produced a trace")
	}
	if re.WastedSec <= 0 || re.WastedSec > 60 {
		t.Fatalf("launch-failure waste %.1fs implausible", re.WastedSec)
	}
}

func TestSamplerDropoutMarksNaNSamples(t *testing.T) {
	app, vm := faultTestApp(), faultTestVM(t)
	s := New(Config{Chaos: chaos.NewPlan(4, chaos.Rates{SamplerDropout: 0.3})})
	r, err := s.runAttempt(app, vm, 2, 0)
	if err != nil {
		t.Fatalf("dropout should not kill the run: %v", err)
	}
	if r.Trace.Dropped == 0 {
		t.Fatal("no samples dropped at rate 0.3")
	}
	nan := 0
	for i := 0; i < r.Trace.Len(); i++ {
		if math.IsNaN(r.Trace.Series[metrics.CPUUser][i]) {
			nan++
			for id := metrics.SeriesID(0); id < metrics.NumSeries; id++ {
				if !math.IsNaN(r.Trace.Series[id][i]) {
					t.Fatalf("sample %d dropped in cpu.user but not in %v", i, id)
				}
			}
		}
	}
	if nan != r.Trace.Dropped {
		t.Fatalf("Dropped=%d but %d NaN samples", r.Trace.Dropped, nan)
	}
	// The damaged trace must still yield a usable correlation vector via
	// listwise deletion at this dropout level.
	if cv := metrics.Correlations(r.Trace, r.Exec); !cv.Valid() {
		t.Fatalf("correlations unusable at 30%% dropout: %v", cv)
	}
}

func TestStragglerStretchesRun(t *testing.T) {
	app, vm := faultTestApp(), faultTestVM(t)
	clean := New(Config{})
	s := New(Config{Chaos: chaos.NewPlan(13, chaos.Rates{Straggler: 1})})
	r, err := s.runAttempt(app, vm, 6, 0)
	if err != nil {
		t.Fatalf("straggler should not kill the run: %v", err)
	}
	whole := clean.run(app, vm, 6)
	if r.Seconds <= whole.Seconds*1.2 {
		t.Fatalf("straggler run %.1fs not clearly longer than clean %.1fs", r.Seconds, whole.Seconds)
	}
}

func TestProfileAttemptAccountsFailures(t *testing.T) {
	app, vm := faultTestApp(), faultTestVM(t)
	s := New(Config{Repeats: 10, Chaos: chaos.NewPlan(31, chaos.Rates{SpotPreemption: 0.4})})
	p, err := s.MeasureAttempt(app, vm, 77, 0, Want{})
	if err != nil {
		if p.FailedRuns != s.Config().Repeats {
			t.Fatalf("error returned but only %d/%d runs failed", p.FailedRuns, s.Config().Repeats)
		}
		return
	}
	if p.FailedRuns == 0 {
		t.Skip("no failures at this seed; preemption rate draw was lucky")
	}
	if len(p.Runs)+p.FailedRuns != s.Config().Repeats {
		t.Fatalf("runs %d + failed %d != repeats %d", len(p.Runs), p.FailedRuns, s.Config().Repeats)
	}
	if p.WastedSec <= 0 {
		t.Fatal("failed runs but WastedSec == 0")
	}
	if p.P90Seconds <= 0 {
		t.Fatal("surviving profile has no P90")
	}
}

func TestProfileAttemptAllRunsDead(t *testing.T) {
	app, vm := faultTestApp(), faultTestVM(t)
	s := New(Config{Chaos: chaos.NewPlan(2, chaos.Rates{LaunchFailure: 1})})
	p, err := s.MeasureAttempt(app, vm, 1, 0, Want{})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %v", err)
	}
	if p.FailedRuns != s.Config().Repeats || len(p.Runs) != 0 {
		t.Fatalf("all-dead profile: FailedRuns=%d Runs=%d", p.FailedRuns, len(p.Runs))
	}
	if p.WastedSec <= 0 {
		t.Fatal("all-dead profile charged no waste")
	}
}
