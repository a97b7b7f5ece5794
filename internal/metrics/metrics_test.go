package metrics

import (
	"math"
	"strings"
	"testing"

	"vesta/internal/rng"
)

// syntheticTrace builds a trace whose CPU and RAM rise together while disk
// falls, giving known correlation signs.
func syntheticTrace(n int) *Trace {
	tr := &Trace{SampleSec: 5}
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		for id := SeriesID(0); id < NumSeries; id++ {
			var v float64
			switch id {
			case CPUUser, RAMUsed:
				v = 0.2 + 0.7*f
			case DiskRead, DiskWrite:
				v = 0.9 - 0.8*f
			case NetSend, NetRecv:
				v = 0.1 + 0.6*f
			case BufferUsed:
				v = 0.3 + 0.4*f
			case CacheUsed:
				v = 0.35 + 0.38*f
			case TasksSyncStep:
				v = 0.9 - 0.85*f
			default:
				v = 0.1 + 0.05*math.Sin(float64(i))
			}
			tr.Series[id] = append(tr.Series[id], v)
		}
	}
	return tr
}

func TestSeriesNames(t *testing.T) {
	if NumSeries != 17 {
		t.Fatalf("NumSeries = %d, want 17", NumSeries)
	}
	seen := map[string]bool{}
	for id := SeriesID(0); id < NumSeries; id++ {
		name := id.String()
		if name == "" || strings.HasPrefix(name, "series(") {
			t.Fatalf("series %d has no name", id)
		}
		if seen[name] {
			t.Fatalf("duplicate series name %q", name)
		}
		seen[name] = true
	}
	if !strings.HasPrefix(SeriesID(99).String(), "series(") {
		t.Fatal("out-of-range SeriesID should fall back to numeric form")
	}
}

func TestTwentyMetricsTotal(t *testing.T) {
	// 17 sampled series + 3 scalar ratios = the paper's 20 low-level metrics.
	scalars := 3
	if int(NumSeries)+scalars != 20 {
		t.Fatalf("metric inventory = %d, want 20", int(NumSeries)+scalars)
	}
}

func TestTraceValidate(t *testing.T) {
	tr := syntheticTrace(20)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if tr.Len() != 20 || tr.Duration() != 100 {
		t.Fatalf("Len/Duration = %d/%v", tr.Len(), tr.Duration())
	}
}

func TestTraceValidateCatchesRagged(t *testing.T) {
	tr := syntheticTrace(10)
	tr.Series[DiskRead] = tr.Series[DiskRead][:5]
	if err := tr.Validate(); err == nil {
		t.Fatal("ragged trace passed validation")
	}
}

func TestTraceValidateCatchesNaN(t *testing.T) {
	tr := syntheticTrace(10)
	tr.Series[CPUUser][3] = math.NaN()
	if err := tr.Validate(); err == nil {
		t.Fatal("NaN trace passed validation")
	}
}

func TestTraceValidateEmpty(t *testing.T) {
	tr := &Trace{SampleSec: 5}
	if err := tr.Validate(); err == nil {
		t.Fatal("empty trace passed validation")
	}
}

func TestCorrelationSigns(t *testing.T) {
	tr := syntheticTrace(50)
	ex := ExecStats{
		TasksCompute: 100, TasksComm: 20, TasksSync: 10,
		DataPerCycle: 0.2, DataPerIteration: 1, DataPerParallelism: 0.125,
	}
	c := Correlations(tr, ex)
	if !c.Valid() {
		t.Fatalf("invalid correlation vector: %v", c)
	}
	if c[CPUToMemory] < 0.9 {
		t.Fatalf("CPU-to-memory = %v, want strongly positive", c[CPUToMemory])
	}
	if c[MemoryToDisk] > -0.9 {
		t.Fatalf("memory-to-disk = %v, want strongly negative", c[MemoryToDisk])
	}
	if c[BufferToCache] < 0.9 {
		t.Fatalf("buffer-to-cache = %v, want strongly positive", c[BufferToCache])
	}
	if c[DiskToSync] < 0.9 {
		t.Fatalf("disk-to-sync = %v, want positive (both fall together)", c[DiskToSync])
	}
	// Compute-dominated: positive data-to-computation.
	if c[DataToComputation] <= 0 {
		t.Fatalf("data-to-computation = %v, want positive", c[DataToComputation])
	}
	// 10 supersteps vs 8 tasks per superstep -> mildly iteration-leaning.
	if c[IterationToParallelism] <= 0 {
		t.Fatalf("iteration-to-parallelism = %v, want positive", c[IterationToParallelism])
	}
}

func TestCorrelationNamesComplete(t *testing.T) {
	if NumCorrelations != 10 {
		t.Fatalf("NumCorrelations = %d, want 10 (Table 1)", NumCorrelations)
	}
	for i, n := range CorrelationNames {
		if n == "" {
			t.Fatalf("correlation %d unnamed", i)
		}
	}
	s := (CorrVector{}).String()
	for _, n := range CorrelationNames {
		if !strings.Contains(s, n) {
			t.Fatalf("String() missing %q", n)
		}
	}
}

func TestBoundedRatio(t *testing.T) {
	if boundedRatio(0, 0) != 0 {
		t.Fatal("boundedRatio(0,0) != 0")
	}
	if boundedRatio(5, 0) != 1 {
		t.Fatal("boundedRatio(5,0) != 1")
	}
	if boundedRatio(0, 5) != -1 {
		t.Fatal("boundedRatio(0,5) != -1")
	}
	if boundedRatio(3, 3) != 0 {
		t.Fatal("boundedRatio(3,3) != 0")
	}
}

func TestCorrVectorValid(t *testing.T) {
	good := CorrVector{0.5, -0.5}
	if !good.Valid() {
		t.Fatal("in-range vector reported invalid")
	}
	bad := CorrVector{1.5}
	if bad.Valid() {
		t.Fatal("out-of-range vector reported valid")
	}
	nan := CorrVector{math.NaN()}
	if nan.Valid() {
		t.Fatal("NaN vector reported valid")
	}
}

func TestCorrVectorSliceCopies(t *testing.T) {
	c := CorrVector{0.1, 0.2}
	s := c.Slice()
	s[0] = 9
	if c[0] != 0.1 {
		t.Fatal("Slice did not copy")
	}
	if len(s) != NumCorrelations {
		t.Fatalf("Slice length %d", len(s))
	}
}

func TestDistance(t *testing.T) {
	a := CorrVector{}
	b := CorrVector{}
	b[0] = 3
	b[1] = 4
	if math.Abs(Distance(a, b)-5) > 1e-12 {
		t.Fatalf("Distance = %v, want 5", Distance(a, b))
	}
	if Distance(a, a) != 0 {
		t.Fatal("self-distance not 0")
	}
}

func TestInterval(t *testing.T) {
	cases := map[float64]float64{
		0.57:  0.55,
		0.55:  0.55,
		-0.02: -0.05,
		0:     0,
	}
	for in, want := range cases {
		if got := Interval(in); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Interval(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestCorrelationsStableUnderNoise(t *testing.T) {
	// Adding small noise must not flip strong correlations.
	src := rng.New(42)
	tr := syntheticTrace(80)
	for id := SeriesID(0); id < NumSeries; id++ {
		for i := range tr.Series[id] {
			tr.Series[id][i] += src.Norm(0, 0.02)
		}
	}
	c := Correlations(tr, ExecStats{TasksCompute: 10, TasksComm: 10, TasksSync: 5,
		DataPerCycle: 1, DataPerIteration: 1, DataPerParallelism: 1})
	if c[CPUToMemory] < 0.8 || c[MemoryToDisk] > -0.8 {
		t.Fatalf("noise destroyed strong correlations: %v", c)
	}
}

// TestCorrelationSeriesIsExact pins CorrelationSeries to exactly the series
// Correlations reads: perturbing or removing any series outside it leaves
// the vector bit-identical (on clean and dropout-damaged traces alike), and
// perturbing any series inside it changes the vector.
func TestCorrelationSeriesIsExact(t *testing.T) {
	ex := ExecStats{TasksCompute: 12, TasksComm: 7, TasksSync: 5,
		DataPerCycle: 0.7, DataPerIteration: 2, DataPerParallelism: 0.5}
	base := func(dropout bool) *Trace {
		src := rng.New(7)
		tr := syntheticTrace(60)
		for id := SeriesID(0); id < NumSeries; id++ {
			for i := range tr.Series[id] {
				tr.Series[id][i] += src.Norm(0, 0.03)
			}
		}
		if dropout {
			for _, i := range []int{3, 17, 40} {
				for id := SeriesID(0); id < NumSeries; id++ {
					tr.Series[id][i] = math.NaN()
				}
				tr.Dropped++
			}
		}
		return tr
	}
	sameVec := func(a, b CorrVector) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	inside := 0
	for _, dropout := range []bool{false, true} {
		want := Correlations(base(dropout), ex)
		if !want.Valid() {
			t.Fatalf("dropout=%v: base vector invalid: %v", dropout, want)
		}
		for id := SeriesID(0); id < NumSeries; id++ {
			src := rng.New(uint64(id) + 100)
			tr := base(dropout)
			for i, v := range tr.Series[id] {
				if !math.IsNaN(v) {
					tr.Series[id][i] = v + src.Norm(0, 0.2)
				}
			}
			got := Correlations(tr, ex)
			if CorrelationSeries.Has(id) {
				inside++
				if sameVec(got, want) {
					t.Errorf("dropout=%v: perturbing %v (in CorrelationSeries) left the vector unchanged", dropout, id)
				}
				continue
			}
			if !sameVec(got, want) {
				t.Errorf("dropout=%v: perturbing %v (outside CorrelationSeries) changed the vector", dropout, id)
			}
			tr.Series[id] = nil
			if got := Correlations(tr, ex); !sameVec(got, want) {
				t.Errorf("dropout=%v: removing %v (outside CorrelationSeries) changed the vector", dropout, id)
			}
		}
		// Every series outside the set absent at once: the lean trace a
		// profile's later repeats sample.
		lean := base(dropout)
		for id := SeriesID(0); id < NumSeries; id++ {
			if !CorrelationSeries.Has(id) {
				lean.Series[id] = nil
			}
		}
		if lean.Len() != 60 {
			t.Fatalf("lean trace Len = %d, want 60", lean.Len())
		}
		if got := Correlations(lean, ex); !sameVec(got, want) {
			t.Errorf("dropout=%v: lean trace vector %v, want %v", dropout, got, want)
		}
	}
	if inside != 2*9 {
		t.Fatalf("CorrelationSeries holds %d series, want the 9 Table 1 reads", inside/2)
	}
}
