package sim

import (
	"math"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/workload"
)

var (
	catalog = cloud.Catalog120()
	byName  = cloud.ByName(catalog)
)

func app(t *testing.T, name string) workload.App {
	t.Helper()
	a, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRunDeterministic(t *testing.T) {
	s := New(DefaultConfig())
	a := app(t, "Spark-lr")
	vm := byName["m5.xlarge"]
	r1 := s.Run(a, vm, 7)
	r2 := s.Run(a, vm, 7)
	if r1.Seconds != r2.Seconds {
		t.Fatalf("same seed gave %v and %v", r1.Seconds, r2.Seconds)
	}
	r3 := s.Run(a, vm, 8)
	if r3.Seconds == r1.Seconds {
		t.Fatal("different seeds gave identical times")
	}
}

func TestRunPositiveAndFinite(t *testing.T) {
	s := New(DefaultConfig())
	for _, a := range workload.All() {
		for _, vmName := range []string{"t3.small", "m5.xlarge", "c5.8xlarge", "r5.large", "i3en.12xlarge"} {
			r := s.Run(a, byName[vmName], 1)
			if r.Seconds <= 0 || math.IsInf(r.Seconds, 0) || math.IsNaN(r.Seconds) {
				t.Fatalf("%s on %s: bad time %v", a.Name, vmName, r.Seconds)
			}
			if r.CostUSD <= 0 {
				t.Fatalf("%s on %s: bad cost %v", a.Name, vmName, r.CostUSD)
			}
		}
	}
}

func TestTraceValidForAllApps(t *testing.T) {
	s := New(DefaultConfig())
	vm := byName["m5.2xlarge"]
	for _, a := range workload.All() {
		r := s.Run(a, vm, 3)
		if err := r.Trace.Validate(); err != nil {
			t.Fatalf("%s: invalid trace: %v", a.Name, err)
		}
		c := metrics.Correlations(r.Trace, r.Exec)
		if !c.Valid() {
			t.Fatalf("%s: invalid correlation vector %v", a.Name, c)
		}
	}
}

func TestMoreComputeIsFasterForCPUBound(t *testing.T) {
	s := New(DefaultConfig())
	a := app(t, "Spark-lr") // compute-intensive, memory fits on big VMs
	small := s.Run(a, byName["c5.xlarge"], 1).Seconds
	big := s.Run(a, byName["c5.8xlarge"], 1).Seconds
	if big >= small {
		t.Fatalf("8xlarge (%v s) not faster than xlarge (%v s) for CPU-bound app", big, small)
	}
}

func TestMemoryPressurePenalizesSpark(t *testing.T) {
	s := New(DefaultConfig())
	a := app(t, "Spark-kmeans") // 1.8 GiB/GB x 8 GB = 14.4 GiB working set
	// c5.large: 4 GiB/node x 4 nodes x 0.7 usable = 11.2 GiB -> pressure > 1.
	tight := s.Run(a, byName["c5.large"], 1)
	if tight.MemPressure <= 1 {
		t.Fatalf("expected memory pressure > 1 on c5.large, got %v", tight.MemPressure)
	}
	// r5.large has identical vCPUs but 4x the memory.
	roomy := s.Run(a, byName["r5.large"], 1)
	if roomy.MemPressure >= 1 {
		t.Fatalf("expected pressure < 1 on r5.large, got %v", roomy.MemPressure)
	}
	if roomy.Seconds >= tight.Seconds {
		t.Fatalf("memory-rich r5.large (%v s) not faster than starved c5.large (%v s)",
			roomy.Seconds, tight.Seconds)
	}
}

func TestFrameworkOverheadOrdering(t *testing.T) {
	// The same kernel on the same VM: Spark's in-memory iteration must beat
	// Hadoop's disk-materialized supersteps for an iterative ML kernel.
	s := New(DefaultConfig())
	vm := byName["m5.2xlarge"]
	hadoop := s.Run(app(t, "Hadoop-lr"), vm, 1).Seconds
	spark := s.Run(app(t, "Spark-lr"), vm, 1).Seconds
	if spark >= hadoop {
		t.Fatalf("Spark-lr (%v s) not faster than Hadoop-lr (%v s) on %s", spark, hadoop, vm.Name)
	}
}

func TestRawMetricLevelsDifferAcrossFrameworks(t *testing.T) {
	// Figure 2's premise: the same kernel produces different low-level
	// metric levels on different frameworks (Hadoop materializes to disk).
	s := New(DefaultConfig())
	vm := byName["m5.2xlarge"]
	h := s.Run(app(t, "Hadoop-lr"), vm, 1)
	sp := s.Run(app(t, "Spark-lr"), vm, 1)
	diskMean := func(tr *metrics.Trace) float64 {
		total := 0.0
		for i := range tr.Series[metrics.DiskRead] {
			total += tr.Series[metrics.DiskRead][i] + tr.Series[metrics.DiskWrite][i]
		}
		return total / float64(tr.Len())
	}
	if diskMean(h.Trace) <= 1.3*diskMean(sp.Trace) {
		t.Fatalf("Hadoop disk activity (%v) not clearly above Spark (%v)",
			diskMean(h.Trace), diskMean(sp.Trace))
	}
}

func TestCorrelationsTransferAcrossFrameworks(t *testing.T) {
	// The paper's key observation: correlation vectors of the same kernel on
	// different frameworks are much closer than vectors of different kernels
	// on the same framework.
	s := New(DefaultConfig())
	vm := byName["m5.2xlarge"]
	corr := func(name string) metrics.CorrVector {
		r := s.Run(app(t, name), vm, 1)
		return metrics.Correlations(r.Trace, r.Exec)
	}
	hadoopLR := corr("Hadoop-lr")
	sparkLR := corr("Spark-lr")
	sparkSort := corr("Spark-sort")
	sameKernel := metrics.Distance(hadoopLR, sparkLR)
	diffKernel := metrics.Distance(sparkLR, sparkSort)
	if sameKernel >= diffKernel {
		t.Fatalf("cross-framework same-kernel distance %v >= same-framework cross-kernel %v; transfer signal missing",
			sameKernel, diffKernel)
	}
}

func TestBurstableThrottling(t *testing.T) {
	s := New(DefaultConfig())
	a := app(t, "Spark-lr")
	t3 := s.Run(a, byName["t3.2xlarge"], 1).Seconds
	m5 := s.Run(a, byName["m5.2xlarge"], 1).Seconds
	// Same nominal size, but the burstable family throttles on long jobs.
	if t3 <= m5 {
		t.Fatalf("t3.2xlarge (%v s) should be slower than m5.2xlarge (%v s) on a long job", t3, m5)
	}
}

func TestStorageOptimizedWinsShuffleHeavy(t *testing.T) {
	s := New(DefaultConfig())
	a := app(t, "Hadoop-terasort") // full shuffle, disk-materialized
	i3 := s.Run(a, byName["i3.2xlarge"], 1).Seconds
	r4 := s.Run(a, byName["r4.2xlarge"], 1).Seconds
	if i3 >= r4 {
		t.Fatalf("i3.2xlarge (%v s) should beat r4.2xlarge (%v s) on disk-bound terasort", i3, r4)
	}
}

func TestProfileRunP90(t *testing.T) {
	s := New(DefaultConfig())
	p := s.ProfileRun(app(t, "Spark-lr"), byName["m5.xlarge"], 5)
	if len(p.Runs) != 10 {
		t.Fatalf("profile has %d runs, want 10", len(p.Runs))
	}
	lo, hi := p.Runs[0], p.Runs[0]
	for _, r := range p.Runs {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if p.P90Seconds < lo || p.P90Seconds > hi {
		t.Fatalf("P90 %v outside run range [%v, %v]", p.P90Seconds, lo, hi)
	}
	if p.P90Seconds < p.MeanSec*0.8 {
		t.Fatalf("P90 %v implausibly below mean %v", p.P90Seconds, p.MeanSec)
	}
	if err := p.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSvdppHighVariance(t *testing.T) {
	// The paper reports Spark-svd++ runs with close to 40% variance.
	s := New(DefaultConfig())
	pSvd := s.ProfileRun(app(t, "Spark-svd++"), byName["m5.xlarge"], 5)
	pLR := s.ProfileRun(app(t, "Spark-lr"), byName["m5.xlarge"], 5)
	cv := func(p Profile) float64 {
		mean := p.MeanSec
		v := 0.0
		for _, r := range p.Runs {
			v += (r - mean) * (r - mean)
		}
		return math.Sqrt(v/float64(len(p.Runs))) / mean
	}
	if cv(pSvd) < 2*cv(pLR) {
		t.Fatalf("svd++ CV %v not clearly above lr CV %v", cv(pSvd), cv(pLR))
	}
}

func TestConfigDefaults(t *testing.T) {
	s := New(Config{})
	cfg := s.Config()
	if cfg.Nodes != 4 || cfg.Repeats != 10 || cfg.SampleSec != 5 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestTinyRunStillSampled(t *testing.T) {
	// Even a sub-5-second job must produce at least one metric sample.
	s := New(Config{Nodes: 4, Repeats: 2, SampleSec: 5})
	a := app(t, "Hive-select").WithInput(0.05)
	r := s.Run(a, byName["c5.8xlarge"], 1)
	if r.Trace.Len() < 1 {
		t.Fatal("no samples emitted for a tiny run")
	}
	if err := r.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPhasesSumApproxTotal(t *testing.T) {
	s := New(DefaultConfig())
	a := app(t, "Hadoop-terasort")
	r := s.Run(a, byName["m5.xlarge"], 2)
	sum := 0.0
	for _, ph := range r.Phases {
		sum += ph.Seconds
	}
	// Total = phases + launch/plan overhead (noise applies to both).
	if sum >= r.Seconds {
		t.Fatalf("phase sum %v >= total %v (overheads missing)", sum, r.Seconds)
	}
	if sum < 0.5*r.Seconds {
		t.Fatalf("phase sum %v is too small a share of total %v", sum, r.Seconds)
	}
}

func TestHeatMapShapeFollowsCPUMemRatio(t *testing.T) {
	// Figure 1: the best region follows a CPU-to-memory ratio. For a
	// compute+memory balanced ML kernel, both an extremely memory-lean and
	// an extremely memory-fat VM must cost more than a balanced one.
	s := New(DefaultConfig())
	a := app(t, "Spark-kmeans")
	cost := func(name string) float64 { return s.ProfileRun(a, byName[name], 3).CostUSD }
	// Same ladder size, three memory ratios.
	balanced := cost("m5.large") // 4 GiB/vCPU
	lean := cost("c5.large")     // 2 GiB/vCPU, memory-starved for kmeans
	fat := cost("x1.large")      // 15 GiB/vCPU, overpriced memory
	if balanced >= lean || balanced >= fat {
		t.Fatalf("balanced m5 cost %v should beat lean c5 %v and fat x1 %v", balanced, lean, fat)
	}
}

func TestStreamingUsesNetworkIngest(t *testing.T) {
	s := New(DefaultConfig())
	a := app(t, "Hadoop-twitter")
	// A network-rich family should beat its plain sibling on streaming.
	m5n := s.Run(a, byName["m5n.xlarge"], 1).Seconds
	m5 := s.Run(a, byName["m5.xlarge"], 1).Seconds
	if m5n >= m5 {
		t.Fatalf("m5n (%v s) should beat m5 (%v s) on streaming ingest", m5n, m5)
	}
}

func TestPhaseKindString(t *testing.T) {
	for _, k := range []PhaseKind{PhaseRead, PhaseCompute, PhaseShuffle, PhaseSync} {
		if k.String() == "" {
			t.Fatal("empty phase name")
		}
	}
	if PhaseKind(42).String() != "phase(42)" {
		t.Fatal("unknown phase fallback wrong")
	}
}

func BenchmarkRun(b *testing.B) {
	s := New(DefaultConfig())
	a, _ := workload.ByName("Spark-lr")
	vm := byName["m5.xlarge"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Run(a, vm, uint64(i))
	}
}

// benchApps are the profile benchmarks' arms on m5.xlarge: Spark-lr, the
// serving benchmark's typical request, and Hadoop-kmeans, the longest
// Hadoop/Hive trace (about 120 samples), so trace-length regressions show.
var benchApps = []string{"Spark-lr", "Hadoop-kmeans"}

// Benchmark sinks keep the measured calls from being optimized away.
var (
	profileSink Profile
	timingSink  Timing
)

func BenchmarkProfileRun(b *testing.B) {
	s := New(DefaultConfig())
	vm := byName["m5.xlarge"]
	for _, name := range benchApps {
		a, _ := workload.ByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				profileSink = s.ProfileRun(a, vm, uint64(i))
			}
		})
	}
}

func BenchmarkProfileTimed(b *testing.B) {
	s := New(DefaultConfig())
	vm := byName["m5.xlarge"]
	for _, name := range benchApps {
		a, _ := workload.ByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				timingSink = s.ProfileTimed(a, vm, uint64(i))
			}
		})
	}
}

// BenchmarkProfileFeatures measures the serving sandbox's profile: the
// correlation features the default training seeds keep after PCA pruning.
func BenchmarkProfileFeatures(b *testing.B) {
	s := New(DefaultConfig())
	vm := byName["m5.xlarge"]
	kept := metrics.FeaturesOf([]int{2, 5, 7, 8})
	for _, name := range benchApps {
		a, _ := workload.ByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				profileSink = s.ProfileFeatures(a, vm, uint64(i), kept)
			}
		})
	}
}

// TestProfileAllocsIndependentOfRepeats is the allocation guard of the lean
// repeat loop: a profile's repeats share their phase buffer, scratch trace
// and correlation sums, so ProfileRun, ProfileFeatures and ProfileTimed
// allocate no more at 40 repeats than at 10. The scratch comes from a
// sync.Pool, which a GC may empty and which drops a quarter of its Puts
// under the race detector; a call that finds it empty allocates fresh
// scratch. So each count is the fewest over ten calls: the steady state.
func TestProfileAllocsIndependentOfRepeats(t *testing.T) {
	vm := byName["m5.xlarge"]
	for _, name := range benchApps {
		a := app(t, name)
		allocs := func(repeats int, profile func(s *Simulator)) float64 {
			s := New(Config{Repeats: repeats})
			fewest := math.Inf(1)
			for i := 0; i < 10; i++ {
				fewest = math.Min(fewest, testing.AllocsPerRun(1, func() { profile(s) }))
			}
			return fewest
		}
		run := func(s *Simulator) { s.ProfileRun(a, vm, 3) }
		features := func(s *Simulator) { s.ProfileFeatures(a, vm, 3, metrics.AllFeatures) }
		timed := func(s *Simulator) { s.ProfileTimed(a, vm, 3) }
		if r10, r40 := allocs(10, run), allocs(40, run); r40 > r10 {
			t.Errorf("%s: ProfileRun allocates %v times at 40 repeats, %v at 10", name, r40, r10)
		}
		if f10, f40 := allocs(10, features), allocs(40, features); f40 > f10 {
			t.Errorf("%s: ProfileFeatures allocates %v times at 40 repeats, %v at 10", name, f40, f10)
		}
		if t10, t40 := allocs(10, timed), allocs(40, timed); t40 > t10 {
			t.Errorf("%s: ProfileTimed allocates %v times at 40 repeats, %v at 10", name, t40, t10)
		}
	}
}

func TestHiveEngineOverheads(t *testing.T) {
	// Hive adds query-planning latency and plan-translated extra stages on
	// top of MapReduce: the same kernel must run slower on Hive than on
	// Hadoop at the same VM type.
	s := New(DefaultConfig())
	vm := byName["m5.2xlarge"]
	hadoopLR := app(t, "Hadoop-lr")
	hiveLR := hadoopLR
	hiveLR.Name = "Hive-lr"
	hiveLR.Framework = workload.Hive
	// Compare repeated-run P90s so run-to-run noise cannot flip the order.
	hd := s.ProfileRun(hadoopLR, vm, 3)
	hv := s.ProfileRun(hiveLR, vm, 3)
	if hv.P90Seconds <= hd.P90Seconds {
		t.Fatalf("Hive (%v s) not slower than Hadoop (%v s) for the same kernel", hv.P90Seconds, hd.P90Seconds)
	}
	// The stage multiplier creates more barriers: Hive runs more phases.
	hdPhases := s.Run(hadoopLR, vm, 3).Phases
	hvPhases := s.Run(hiveLR, vm, 3).Phases
	if len(hvPhases) <= len(hdPhases) {
		t.Fatalf("Hive has %d phases, Hadoop %d; plan translation should add stages",
			len(hvPhases), len(hdPhases))
	}
}

func TestInterferenceInflatesVariance(t *testing.T) {
	quiet := New(Config{Repeats: 10})
	busy := New(Config{Repeats: 10, Interference: 0.3})
	a := app(t, "Spark-lr")
	vm := byName["m5.xlarge"]
	cv := func(p Profile) float64 {
		m := p.MeanSec
		v := 0.0
		for _, r := range p.Runs {
			v += (r - m) * (r - m)
		}
		return math.Sqrt(v/float64(len(p.Runs))) / m
	}
	q := cv(quiet.ProfileRun(a, vm, 5))
	b := cv(busy.ProfileRun(a, vm, 5))
	if b <= q {
		t.Fatalf("interference did not inflate variance: quiet CV %v, busy CV %v", q, b)
	}
}

func TestZeroInterferenceMatchesDefault(t *testing.T) {
	// Interference 0 must be byte-identical to the default configuration so
	// the paper experiments are unaffected by the extension knob.
	a := app(t, "Hadoop-terasort")
	vm := byName["i3.2xlarge"]
	d := New(DefaultConfig()).ProfileRun(a, vm, 9)
	z := New(Config{Nodes: 4, Repeats: 10, SampleSec: 5, Interference: 0}).ProfileRun(a, vm, 9)
	if d.P90Seconds != z.P90Seconds {
		t.Fatalf("zero interference changed results: %v vs %v", d.P90Seconds, z.P90Seconds)
	}
}
