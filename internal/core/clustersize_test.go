package core

import (
	"testing"

	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

func TestRecommendClusterSizeValidation(t *testing.T) {
	sys, meter := trainedSystem(t)
	tgt := mustApp(t, "Spark-lr")
	if _, err := sys.RecommendClusterSize(tgt, "m5.xlarge", nil, meter); err == nil {
		t.Fatal("empty sizes accepted")
	}
	if _, err := sys.RecommendClusterSize(tgt, "bogus.vm", []int{2, 4}, meter); err == nil {
		t.Fatal("unknown VM accepted")
	}
	if _, err := sys.RecommendClusterSize(tgt, "m5.xlarge", []int{0, 4}, meter); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestRecommendClusterSizeBasics(t *testing.T) {
	sys, meter := trainedSystem(t)
	meter.Reset()
	tgt := mustApp(t, "Spark-lr")
	sizes := []int{2, 4, 8, 16}
	rec, err := sys.RecommendClusterSize(tgt, "m5.xlarge", sizes, meter)
	if err != nil {
		t.Fatal(err)
	}
	if rec.BestByTime < 2 || rec.BestByCost < 2 {
		t.Fatalf("no recommendation: %+v", rec)
	}
	if len(rec.Options) != len(sizes) {
		t.Fatalf("%d options, want %d", len(rec.Options), len(sizes))
	}
	// Options ascend by node count, measured ones carry data.
	measured := 0
	for i, opt := range rec.Options {
		if opt.Nodes != sizes[i] {
			t.Fatalf("option order wrong: %+v", rec.Options)
		}
		if opt.Measured {
			measured++
			if opt.P90Seconds <= 0 || opt.CostUSD <= 0 {
				t.Fatalf("measured option without data: %+v", opt)
			}
		}
	}
	if measured == 0 {
		t.Fatal("nothing measured")
	}
	// Accounting: sandbox + one run per measured size.
	if rec.Runs != measured+1 {
		t.Fatalf("Runs = %d, measured = %d", rec.Runs, measured)
	}
	if meter.Runs() != rec.Runs {
		t.Fatal("meter disagrees with recommendation accounting")
	}
	// The recommended size must be the best among the measured options.
	for _, opt := range rec.Options {
		if opt.Measured && opt.Nodes != rec.BestByTime {
			best := optByNodes(rec.Options, rec.BestByTime)
			if opt.P90Seconds < best.P90Seconds {
				t.Fatalf("size %d (%v s) beats recommended %d (%v s)",
					opt.Nodes, opt.P90Seconds, rec.BestByTime, best.P90Seconds)
			}
		}
	}
}

func optByNodes(opts []SizeOption, n int) SizeOption {
	for _, o := range opts {
		if o.Nodes == n {
			return o
		}
	}
	return SizeOption{}
}

func TestRecommendUsesCorrelationDirection(t *testing.T) {
	sys, meter := trainedSystem(t)
	// A wide shuffle-heavy workload with tasks >> iterations is fat-leaning
	// (negative iteration-to-parallelism) -> scanned large-first.
	sort := mustApp(t, "Spark-sort")
	rec, err := sys.RecommendClusterSize(sort, "c5n.4xlarge", []int{2, 4, 8, 16}, meter)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Thin {
		t.Fatal("Spark-sort reported thin-leaning; its parallelism dwarfs its iterations")
	}
	// Fat-first scan must have measured the largest candidate.
	if !optByNodes(rec.Options, 16).Measured {
		t.Fatal("fat-leaning scan skipped the largest size")
	}
}

func TestRecommendFindsSweetSpot(t *testing.T) {
	// For a small input, huge clusters pay coordination without speedup:
	// the recommended size must not be the largest candidate.
	sys, meter := trainedSystem(t)
	tiny := mustApp(t, "Spark-pca").WithInput(2)
	rec, err := sys.RecommendClusterSize(tiny, "m5.2xlarge", []int{2, 4, 8, 16, 32}, meter)
	if err != nil {
		t.Fatal(err)
	}
	if rec.BestByTime == 32 {
		t.Fatalf("2 GB input recommended a 32-node cluster: %+v", rec.Options)
	}
}

func TestProfileWithCharges(t *testing.T) {
	s := sim.New(sim.Config{Repeats: 2})
	m := oracle.NewMeter(s, 3)
	other := sim.New(sim.Config{Repeats: 2, Nodes: 8})
	a, _ := workload.ByName("Spark-lr")
	p := m.MeasureOn(other, a, catalog[30], sim.Want{})
	if p.Nodes != 8 {
		t.Fatalf("MeasureOn ignored the alternative config: nodes = %d", p.Nodes)
	}
	if m.Runs() != 1 {
		t.Fatalf("MeasureOn did not charge the meter: %d", m.Runs())
	}
}
