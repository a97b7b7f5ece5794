package traceview

import (
	"math"
	"strings"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

func sampleTrace(t *testing.T, appName string) *metrics.Trace {
	t.Helper()
	a, err := workload.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := cloud.Find(cloud.Catalog120(), "m5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(sim.Config{Repeats: 2}).Measure(a, vm, 1, sim.Want{Trace: true}).Trace
}

func TestSparklineBasics(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1}, 0)
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline %q has wrong length", s)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[2] != '█' {
		t.Fatalf("sparkline endpoints wrong: %q", s)
	}
	if Sparkline(nil, 5) != "" {
		t.Fatal("empty sparkline not empty")
	}
	// Constant series: all-low flat line, no panic.
	flat := Sparkline([]float64{0.5, 0.5, 0.5}, 0)
	for _, r := range flat {
		if r != '▁' {
			t.Fatalf("constant sparkline = %q", flat)
		}
	}
}

func TestSparklineWidth(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i)
	}
	s := Sparkline(values, 20)
	if len([]rune(s)) != 20 {
		t.Fatalf("resampled sparkline length %d, want 20", len([]rune(s)))
	}
}

func TestResample(t *testing.T) {
	values := []float64{1, 1, 3, 3}
	got := Resample(values, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Resample = %v", got)
	}
	// width >= len copies.
	cp := Resample(values, 10)
	if len(cp) != 4 {
		t.Fatalf("oversized Resample = %v", cp)
	}
	cp[0] = 99
	if values[0] == 99 {
		t.Fatal("Resample aliased input")
	}
	// Mean is preserved by bucket-averaging with equal buckets.
	many := make([]float64, 64)
	sum := 0.0
	for i := range many {
		many[i] = float64(i % 7)
		sum += many[i]
	}
	r := Resample(many, 8)
	rsum := 0.0
	for _, v := range r {
		rsum += v
	}
	if math.Abs(rsum/8-sum/64) > 1e-9 {
		t.Fatalf("resample changed mean: %v vs %v", rsum/8, sum/64)
	}
}

func TestSummarizeAllSeries(t *testing.T) {
	tr := sampleTrace(t, "Spark-lr")
	sums := Summarize(tr, 30)
	if len(sums) != int(metrics.NumSeries) {
		t.Fatalf("summaries for %d series, want %d", len(sums), metrics.NumSeries)
	}
	for _, s := range sums {
		if s.Name == "" || s.Spark == "" {
			t.Fatalf("incomplete summary %+v", s)
		}
		if s.Stats.N != tr.Len() {
			t.Fatalf("summary N %d, want %d", s.Stats.N, tr.Len())
		}
	}
}

func TestSegmentsCoverTrace(t *testing.T) {
	tr := sampleTrace(t, "Hadoop-terasort")
	segs := Segments(tr)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	samples := 0
	for i, seg := range segs {
		if seg.Samples <= 0 || seg.DurationSec <= 0 {
			t.Fatalf("degenerate segment %+v", seg)
		}
		samples += seg.Samples
		if i > 0 && segs[i-1].Kind == seg.Kind {
			t.Fatal("adjacent segments share a kind (not maximal)")
		}
	}
	if samples != tr.Len() {
		t.Fatalf("segments cover %d samples, trace has %d", samples, tr.Len())
	}
}

func TestPhaseSharesSumToOne(t *testing.T) {
	tr := sampleTrace(t, "Spark-kmeans")
	shares := PhaseShares(tr)
	total := 0.0
	for _, v := range shares {
		if v < 0 || v > 1 {
			t.Fatalf("share out of range: %v", shares)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v", total)
	}
}

func TestComputeBoundWorkloadIsComputeDominant(t *testing.T) {
	tr := sampleTrace(t, "Spark-lr")
	shares := PhaseShares(tr)
	if shares[PhaseCompute] < 0.4 {
		t.Fatalf("Spark-lr compute share = %v, want dominant", shares[PhaseCompute])
	}
}

func TestShuffleWorkloadShowsShuffle(t *testing.T) {
	tr := sampleTrace(t, "Spark-sort")
	shares := PhaseShares(tr)
	if shares[PhaseShuffle]+shares[PhaseIO] < 0.25 {
		t.Fatalf("Spark-sort shuffle+io share = %v, want substantial", shares[PhaseShuffle]+shares[PhaseIO])
	}
}

func TestRenderContainsEverything(t *testing.T) {
	tr := sampleTrace(t, "Spark-lr")
	out := Render(tr, 24)
	for _, want := range []string{"trace:", "cpu.user", "net.recv", "phase timeline:", "shares:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestEmptyTraceSegments(t *testing.T) {
	if Segments(&metrics.Trace{SampleSec: 5}) != nil {
		t.Fatal("empty trace produced segments")
	}
}
