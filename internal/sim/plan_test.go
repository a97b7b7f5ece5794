package sim

import (
	"math"
	"testing"

	"vesta/internal/chaos"
	"vesta/internal/metrics"
	"vesta/internal/workload"
)

// measured is what Measure(w) must return when ref is the full measurement:
// ref without its trace unless w.Trace, NaN outside w.Features.
func measured(ref Profile, w Want) Profile {
	if !w.Trace {
		ref.Trace = nil
	}
	for i := range ref.Corr {
		if !w.Features.Has(i) {
			ref.Corr[i] = math.NaN()
		}
	}
	return ref
}

// TestProfileFeaturesEverySetMatchesReference pins every skip schedule the
// sampler can take: Measure of a features-only want equals the verbatim
// reference for each of the 1,023 non-empty feature sets on one (app, VM) pair whose trace is
// about 120 samples long.
func TestProfileFeaturesEverySetMatchesReference(t *testing.T) {
	s := New(Config{Repeats: 3})
	a, vm := app(t, "Hadoop-kmeans"), byName["m5.xlarge"]
	want := s.refProfileRun(a, vm, 7)
	for feats := metrics.FeatureSet(1); feats <= metrics.AllFeatures; feats++ {
		w := Want{Features: feats}
		if m := mismatch(s.Measure(a, vm, 7, w), measured(want, w)); m != "" {
			t.Fatalf("Measure(%010b) differs from the reference at Profile%s", feats, m)
		}
	}
}

// TestInterleavedProfilesMatchReference: one goroutine interleaves
// MeasureAttempt under a straggler and preemption plan with times-only and
// features-only measurements of other pairs, so the pooled plan and phase buffers pass
// between plans of different lengths and between kinds of profile. Every
// result must equal the reference: a straggler or a truncation that reached
// the plan instead of the repeat's copy would skew every later repeat.
func TestInterleavedProfilesMatchReference(t *testing.T) {
	plan := chaos.NewPlan(5, chaos.Rates{Straggler: 0.4, SpotPreemption: 0.3})
	s := New(Config{Repeats: 4, Chaos: plan})
	apps, vms := workload.All(), referenceVMs()
	kept := metrics.FeaturesOf([]int{2, 5, 7, 8})
	stragglers, preempted := 0, 0
	for i, a := range apps {
		vm, seed, attempt := vms[i%len(vms)], uint64(i+1), uint64(i%2)
		other, otherVM := apps[(i+11)%len(apps)], vms[(i+1)%len(vms)]

		got, gotErr := s.MeasureAttempt(a, vm, seed, attempt, full)
		timed := s.Measure(other, otherVM, seed, Want{})
		feats := s.Measure(other, otherVM, seed, Want{Features: kept})
		again, againErr := s.MeasureAttempt(a, vm, seed, attempt, full)

		want, wantErr := s.refProfileAttempt(a, vm, seed, attempt)
		for _, r := range []struct {
			name      string
			got, want any
		}{
			{"MeasureAttempt", got, want},
			{"MeasureAttempt error", gotErr, wantErr},
			{"times-only Measure", timed.Timing(), s.refProfileTimed(other, otherVM, seed)},
			{"features-only Measure", feats, measured(s.refProfileRun(other, otherVM, seed), Want{Features: kept})},
			{"repeated MeasureAttempt", again, want},
			{"repeated MeasureAttempt error", againErr, wantErr},
		} {
			if m := mismatch(r.got, r.want); m != "" {
				t.Fatalf("%s on %s seed %d: %s differs from the reference at%s", a.Name, vm.Name, seed, r.name, m)
			}
		}
		for k := 0; k < s.cfg.Repeats; k++ {
			f := plan.ForRun(a.Name, vm.Name, seed+uint64(k)*runSeedStride, attempt)
			if f.LaunchFailure {
				continue
			}
			if f.StragglerFactor != 1 {
				stragglers++
			}
			if f.Preempt {
				preempted++
			}
		}
	}
	if stragglers == 0 || preempted == 0 {
		t.Fatalf("%d straggling and %d preempted repeats: the plan misses a case", stragglers, preempted)
	}
}
