package sim

import (
	"math"
	"testing"

	"vesta/internal/metrics"
	"vesta/internal/workload"
)

// sameBits reports whether a and b are the same float64 bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// timingMismatch names the first field on which got differs from want bit
// for bit, or returns "" when they are identical.
func timingMismatch(got, want Timing) string {
	if len(got.Runs) != len(want.Runs) {
		return "Runs length"
	}
	for i := range got.Runs {
		if !sameBits(got.Runs[i], want.Runs[i]) {
			return "Runs"
		}
	}
	fields := []struct {
		name      string
		got, want float64
	}{
		{"P90Seconds", got.P90Seconds, want.P90Seconds},
		{"MeanSec", got.MeanSec, want.MeanSec},
		{"CostUSD", got.CostUSD, want.CostUSD},
		{"P90LatencyMS", got.P90LatencyMS, want.P90LatencyMS},
		{"ThroughputMBps", got.ThroughputMBps, want.ThroughputMBps},
	}
	for _, f := range fields {
		if !sameBits(f.got, f.want) {
			return f.name
		}
	}
	return ""
}

// TestProfileTimedMatchesProfileRun is the timing-only contract: for every
// app (streaming ones included, so latency and throughput are non-zero),
// a spread of VM types, several seeds and both a single run and the paper's
// ten repeats, ProfileTimed returns ProfileRun's timing fields bit for bit.
func TestProfileTimedMatchesProfileRun(t *testing.T) {
	apps := workload.All()
	if len(apps) != 30 {
		t.Fatalf("expected the 30 Table 3 apps, got %d", len(apps))
	}
	var vms []string
	for i := 0; i < len(catalog); i += len(catalog) / 10 {
		vms = append(vms, catalog[i].Name)
	}
	if len(vms) < 10 {
		t.Fatalf("only %d VMs sampled", len(vms))
	}
	streamingSeen := false
	for _, repeats := range []int{1, 10} {
		s := New(Config{Repeats: repeats})
		for _, a := range apps {
			for _, vmName := range vms {
				vm := byName[vmName]
				for _, seed := range []uint64{1, 42, 0xdeadbeef} {
					full := s.ProfileRun(a, vm, seed)
					timed := s.ProfileTimed(a, vm, seed)
					if f := timingMismatch(timed, full.Timing()); f != "" {
						t.Fatalf("repeats=%d %s on %s seed %d: ProfileTimed.%s differs from ProfileRun",
							repeats, a.Name, vmName, seed, f)
					}
					if len(timed.Runs) != repeats {
						t.Fatalf("repeats=%d: %d runs", repeats, len(timed.Runs))
					}
					if a.Demand.Streaming && timed.P90LatencyMS > 0 && timed.ThroughputMBps > 0 {
						streamingSeen = true
					}
				}
			}
		}
	}
	if !streamingSeen {
		t.Fatal("no streaming app produced latency and throughput; the contract is untested there")
	}
}

// TestProfileAttemptTimingMatchesProfileRun pins the shared summary: a
// fault-free checked profile carries the same timing fields as ProfileRun.
func TestProfileAttemptTimingMatchesProfileRun(t *testing.T) {
	s := New(DefaultConfig())
	for _, name := range []string{"Spark-lr", "Hadoop-terasort", "Hadoop-twitter"} {
		a := app(t, name)
		vm := byName["c5.2xlarge"]
		p, err := s.ProfileAttempt(a, vm, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f := timingMismatch(p.Timing(), s.ProfileRun(a, vm, 5).Timing()); f != "" {
			t.Fatalf("%s: ProfileAttempt.%s differs from ProfileRun", name, f)
		}
	}
}

// TestProfilesOwnTheirMemory: the repeat loop's buffers are pooled across
// calls, so a returned profile must share nothing with them. A profile and
// a timing taken first stay bit-identical to fresh copies after many later
// calls of every kind have reused the pool.
func TestProfilesOwnTheirMemory(t *testing.T) {
	s := New(Config{Repeats: 3})
	vm := byName["m5.xlarge"]
	a := app(t, "Hadoop-kmeans")
	p, tm := s.ProfileRun(a, vm, 1), s.ProfileTimed(a, vm, 1)
	for i, other := range workload.All() {
		s.ProfileRun(other, vm, uint64(i))
		s.ProfileFeatures(other, vm, uint64(i), metrics.AllFeatures)
		s.ProfileFeatures(other, vm, uint64(i), metrics.FeaturesOf([]int{2, 5, 7, 8}))
		s.ProfileTimed(other, vm, uint64(i))
	}
	if m := mismatch(p, New(Config{Repeats: 3}).ProfileRun(a, vm, 1)); m != "" {
		t.Fatalf("an earlier ProfileRun changed under later calls at Profile%s", m)
	}
	if m := mismatch(tm, New(Config{Repeats: 3}).ProfileTimed(a, vm, 1)); m != "" {
		t.Fatalf("an earlier ProfileTimed changed under later calls at Timing%s", m)
	}
}
