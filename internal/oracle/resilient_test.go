package oracle

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"vesta/internal/chaos"
	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/parallel"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// equalFloat treats NaN as equal to NaN (reflect.DeepEqual does not, and
// dropout-damaged traces legitimately contain NaN samples).
func equalFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func equalSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// equalProfile is a NaN-aware deep comparison of two profiles.
func equalProfile(a, b sim.Profile) bool {
	if a.App.Name != b.App.Name || a.VM != b.VM || a.Nodes != b.Nodes ||
		!equalFloat(a.P90Seconds, b.P90Seconds) || !equalFloat(a.MeanSec, b.MeanSec) ||
		!equalFloat(a.CostUSD, b.CostUSD) || !equalFloat(a.P90LatencyMS, b.P90LatencyMS) ||
		!equalFloat(a.ThroughputMBps, b.ThroughputMBps) ||
		a.FailedRuns != b.FailedRuns || !equalFloat(a.WastedSec, b.WastedSec) ||
		!equalSeries(a.Runs, b.Runs) || !equalSeries(a.Corr[:], b.Corr[:]) ||
		a.Exec != b.Exec {
		return false
	}
	if (a.Trace == nil) != (b.Trace == nil) {
		return false
	}
	if a.Trace != nil {
		if a.Trace.SampleSec != b.Trace.SampleSec || a.Trace.Partial != b.Trace.Partial ||
			a.Trace.Dropped != b.Trace.Dropped {
			return false
		}
		for id := metrics.SeriesID(0); id < metrics.NumSeries; id++ {
			if !equalSeries(a.Trace.Series[id], b.Trace.Series[id]) {
				return false
			}
		}
	}
	return true
}

func resilientFixture(rates chaos.Rates, policy RetryPolicy) (*Resilient, workload.App, cloud.VMType) {
	var plan *chaos.Plan
	if !rates.Zero() {
		plan = chaos.NewPlan(1234, rates)
	}
	s := sim.New(sim.Config{Chaos: plan})
	m := NewMeter(s, 7)
	app := workload.BySet(workload.SourceTraining)[0]
	vm := cloud.ByName(cloud.Catalog())["m5.xlarge"]
	return NewResilient(m, policy), app, vm
}

func TestResilientFaultFreeMatchesMeter(t *testing.T) {
	r, app, vm := resilientFixture(chaos.Rates{}, RetryPolicy{})
	got, err := r.TryProfile(app, vm)
	if err != nil {
		t.Fatalf("fault-free TryProfile failed: %v", err)
	}
	want := sim.New(sim.Config{}).Measure(app, vm, 7, sim.Want{Features: metrics.AllFeatures, Trace: true})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fault-free resilient profile differs from ground truth")
	}
	if r.Runs() != 1 {
		t.Fatalf("fault-free profile charged %d runs, want 1", r.Runs())
	}
	st := r.Stats()
	if st.Attempts != 1 || st.Retries != 0 || st.Failed != 0 || st.WastedSec != 0 {
		t.Fatalf("fault-free stats polluted: %+v", st)
	}
}

// TestResilientRetryRecoversGroundTruth: a campaign whose first attempt dies
// but whose retry survives must deliver the exact fault-free measurement.
func TestResilientRetryRecoversGroundTruth(t *testing.T) {
	r, app, _ := resilientFixture(chaos.Rates{LaunchFailure: 0.5}, RetryPolicy{MaxRetries: 5})
	clean := sim.New(sim.Config{})
	recovered := false
	for _, vm := range cloud.Catalog() {
		p, err := r.TryProfile(app, vm)
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(p, clean.Measure(app, vm, 7, sim.Want{Features: metrics.AllFeatures, Trace: true})) {
			// Launch failures kill whole runs; survivors must be pristine.
			// (Profiles with partial failures differ by design.)
			if p.FailedRuns == 0 {
				t.Fatalf("recovered profile for %s differs from ground truth", vm.Name)
			}
		}
		if p.FailedRuns > 0 {
			recovered = true
		}
	}
	st := r.Stats()
	if !recovered && st.Retries == 0 {
		t.Fatal("no campaign exercised the retry path at launch-failure rate 0.5")
	}
	if st.WastedSec <= 0 {
		t.Fatalf("faults occurred but WastedSec = %v", st.WastedSec)
	}
}

func TestResilientAllAttemptsFail(t *testing.T) {
	r, app, vm := resilientFixture(chaos.Rates{LaunchFailure: 1}, RetryPolicy{MaxRetries: 2})
	_, err := r.TryProfile(app, vm)
	if !errors.Is(err, ErrProfileFailed) {
		t.Fatalf("want ErrProfileFailed, got %v", err)
	}
	if r.Runs() != 3 {
		t.Fatalf("3 attempts should charge 3 runs (Figure-8 accounting), got %d", r.Runs())
	}
	st := r.Stats()
	if st.Failed != 1 || st.Retries != 2 || st.BackoffSec != 30+60 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestResilientDeadline(t *testing.T) {
	r, app, vm := resilientFixture(chaos.Rates{LaunchFailure: 1},
		RetryPolicy{MaxRetries: 10, BackoffSec: 30, DeadlineSec: 40})
	_, err := r.TryProfile(app, vm)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	st := r.Stats()
	if st.DeadlineHits != 1 {
		t.Fatalf("DeadlineHits = %d, want 1", st.DeadlineHits)
	}
	if st.Attempts > 3 {
		t.Fatalf("deadline of 40s should stop the campaign early, got %d attempts", st.Attempts)
	}
}

func TestResilientQuarantinesCorruptProfiles(t *testing.T) {
	// Total sampler dropout: every run completes but every trace is shredded,
	// so the correlation vector is unusable on every attempt.
	r, app, vm := resilientFixture(chaos.Rates{SamplerDropout: 1}, RetryPolicy{MaxRetries: 1})
	_, err := r.TryProfile(app, vm)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("want ErrQuarantined, got %v", err)
	}
	st := r.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}

// TestResilientDeterministicAcrossWorkers: profiling a grid through fresh
// resilient meters must produce identical profiles and identical stats at
// any worker count, including under the race detector.
func TestResilientDeterministicAcrossWorkers(t *testing.T) {
	apps := workload.BySet(workload.SourceTraining)[:4]
	vms := cloud.Catalog()[:6]
	grid := func(workers int) ([]sim.Profile, []bool, ResilienceStats) {
		s := sim.New(sim.Config{Repeats: 4, Chaos: chaos.NewPlan(99, chaos.Uniform(0.2))})
		r := NewResilient(NewMeter(s, 7), RetryPolicy{MaxRetries: 2})
		n := len(apps) * len(vms)
		profiles := make([]sim.Profile, n)
		ok := make([]bool, n)
		parallel.For(workers, n, func(i int) {
			p, err := r.TryProfile(apps[i/len(vms)], vms[i%len(vms)])
			profiles[i], ok[i] = p, err == nil
		})
		return profiles, ok, r.Stats()
	}
	wantP, wantOK, wantStats := grid(1)
	for _, w := range []int{2, 4} {
		gotP, gotOK, gotStats := grid(w)
		if !reflect.DeepEqual(gotOK, wantOK) {
			t.Fatalf("workers=%d: success pattern differs", w)
		}
		for i := range gotP {
			if !equalProfile(gotP[i], wantP[i]) {
				t.Fatalf("workers=%d: profile %d differs", w, i)
			}
		}
		if gotStats != wantStats {
			t.Fatalf("workers=%d: stats differ:\n got %+v\nwant %+v", w, gotStats, wantStats)
		}
	}
}

func TestBuildWorkersMatchesBuild(t *testing.T) {
	s := sim.New(sim.Config{Repeats: 3})
	apps := workload.BySet(workload.SourceTraining)[:3]
	vms := cloud.Catalog()[:5]
	want := Build(s, apps, vms, 11)
	for _, w := range []int{1, 2, 7} {
		got := BuildWorkers(s, apps, vms, 11, w)
		for _, a := range apps {
			for _, v := range vms {
				wt, _ := want.Time(a.Name, v.Name)
				gt, err := got.Time(a.Name, v.Name)
				if err != nil || gt != wt {
					t.Fatalf("workers=%d: %s/%s time %v != %v (%v)", w, a.Name, v.Name, gt, wt, err)
				}
			}
		}
	}
}
