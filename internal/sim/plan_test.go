package sim

import (
	"math"
	"testing"

	"vesta/internal/chaos"
	"vesta/internal/metrics"
	"vesta/internal/workload"
)

// featuresReference is what ProfileFeatures(feats) must return: the
// reference profile without its trace, NaN outside feats.
func featuresReference(want Profile, feats metrics.FeatureSet) Profile {
	want.Trace = nil
	for i := range want.Corr {
		if !feats.Has(i) {
			want.Corr[i] = math.NaN()
		}
	}
	return want
}

// TestProfileFeaturesEverySetMatchesReference pins every skip schedule the
// sampler can take: ProfileFeatures equals the verbatim reference for each
// of the 1,023 non-empty feature sets on one (app, VM) pair whose trace is
// about 120 samples long.
func TestProfileFeaturesEverySetMatchesReference(t *testing.T) {
	s := New(Config{Repeats: 3})
	a, vm := app(t, "Hadoop-kmeans"), byName["m5.xlarge"]
	want := s.refProfileRun(a, vm, 7)
	for feats := metrics.FeatureSet(1); feats <= metrics.AllFeatures; feats++ {
		if m := mismatch(s.ProfileFeatures(a, vm, 7, feats), featuresReference(want, feats)); m != "" {
			t.Fatalf("ProfileFeatures(%010b) differs from the reference at Profile%s", feats, m)
		}
	}
}

// TestInterleavedProfilesMatchReference: one goroutine interleaves
// ProfileAttempt under a straggler and preemption plan with ProfileTimed and
// ProfileFeatures of other pairs, so the pooled plan and phase buffers pass
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

		got, gotErr := s.ProfileAttempt(a, vm, seed, attempt)
		timed := s.ProfileTimed(other, otherVM, seed)
		feats := s.ProfileFeatures(other, otherVM, seed, kept)
		again, againErr := s.ProfileAttempt(a, vm, seed, attempt)

		want, wantErr := s.refProfileAttempt(a, vm, seed, attempt)
		for _, r := range []struct {
			name      string
			got, want any
		}{
			{"ProfileAttempt", got, want},
			{"ProfileAttempt error", gotErr, wantErr},
			{"ProfileTimed", timed, s.refProfileTimed(other, otherVM, seed)},
			{"ProfileFeatures", feats, featuresReference(s.refProfileRun(other, otherVM, seed), kept)},
			{"repeated ProfileAttempt", again, want},
			{"repeated ProfileAttempt error", againErr, wantErr},
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
