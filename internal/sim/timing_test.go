package sim

import (
	"testing"

	"vesta/internal/metrics"
	"vesta/internal/workload"
)

// TestProfileTimedMatchesProfileRun is the times-only contract: for every
// app (streaming ones included, so latency and throughput are non-zero),
// a spread of VM types, several seeds and both a single run and the paper's
// ten repeats, Measure(Want{}) returns the full measurement bit for bit
// without its trace and with NaN in every correlation component.
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
					timed := s.Measure(a, vm, seed, Want{})
					if m := mismatch(timed, measured(s.Measure(a, vm, seed, full), Want{})); m != "" {
						t.Fatalf("repeats=%d %s on %s seed %d: Measure(Want{}) differs from the full measurement at Profile%s",
							repeats, a.Name, vmName, seed, m)
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
// fault-free checked measurement equals the unchecked one for the full
// want and for Want{}, which the checked path serves from the repeat loop
// and the unchecked one from the timed loop.
func TestProfileAttemptTimingMatchesProfileRun(t *testing.T) {
	s := New(DefaultConfig())
	for _, name := range []string{"Spark-lr", "Hadoop-terasort", "Hadoop-twitter"} {
		a := app(t, name)
		vm := byName["c5.2xlarge"]
		for _, w := range []Want{full, {}} {
			p, err := s.MeasureAttempt(a, vm, 5, 0, w)
			if err != nil {
				t.Fatal(err)
			}
			if m := mismatch(p, s.Measure(a, vm, 5, w)); m != "" {
				t.Fatalf("%s %+v: MeasureAttempt differs from Measure at Profile%s", name, w, m)
			}
		}
	}
}

// TestProfilesOwnTheirMemory: the repeat loop's buffers are pooled across
// calls, so a returned profile must share nothing with them. A full and a
// times-only measurement taken first stay bit-identical to fresh copies after many later
// calls of every kind have reused the pool.
func TestProfilesOwnTheirMemory(t *testing.T) {
	s := New(Config{Repeats: 3})
	vm := byName["m5.xlarge"]
	a := app(t, "Hadoop-kmeans")
	p, tm := s.Measure(a, vm, 1, full), s.Measure(a, vm, 1, Want{})
	for i, other := range workload.All() {
		s.Measure(other, vm, uint64(i), full)
		s.Measure(other, vm, uint64(i), Want{Features: metrics.AllFeatures})
		s.Measure(other, vm, uint64(i), Want{Features: metrics.FeaturesOf([]int{2, 5, 7, 8})})
		s.Measure(other, vm, uint64(i), Want{})
	}
	if m := mismatch(p, New(Config{Repeats: 3}).Measure(a, vm, 1, full)); m != "" {
		t.Fatalf("an earlier full measurement changed under later calls at Profile%s", m)
	}
	if m := mismatch(tm, New(Config{Repeats: 3}).Measure(a, vm, 1, Want{})); m != "" {
		t.Fatalf("an earlier times-only measurement changed under later calls at Profile%s", m)
	}
}
