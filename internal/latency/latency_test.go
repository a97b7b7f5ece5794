package latency

import (
	"math"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

var catalog = cloud.Catalog120()

func trained(t *testing.T) (*core.System, *oracle.Meter) {
	t.Helper()
	s := sim.New(sim.DefaultConfig())
	meter := oracle.NewMeter(s, 1)
	sys, err := core.New(core.Config{Seed: 1}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), meter); err != nil {
		t.Fatal(err)
	}
	return sys, meter
}

func streamingApp(t *testing.T) workload.App {
	t.Helper()
	a, err := workload.ByName("Hadoop-twitter")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSimEmitsStreamingMetrics(t *testing.T) {
	s := sim.New(sim.Config{Repeats: 3})
	vm, _ := cloud.Find(catalog, "m5.xlarge")
	p := s.Measure(streamingApp(t), vm, 1, sim.Want{})
	if p.P90LatencyMS <= 0 {
		t.Fatalf("streaming latency = %v", p.P90LatencyMS)
	}
	if p.ThroughputMBps <= 0 {
		t.Fatalf("streaming throughput = %v", p.ThroughputMBps)
	}
	batch, _ := workload.ByName("Spark-sort")
	pb := s.Measure(batch, vm, 1, sim.Want{})
	if pb.P90LatencyMS != 0 || pb.ThroughputMBps != 0 {
		t.Fatal("batch workload reported streaming metrics")
	}
}

func TestLatencyImprovesWithResources(t *testing.T) {
	// More network + CPU capacity must reduce streaming latency.
	s := sim.New(sim.Config{Repeats: 3})
	small, _ := cloud.Find(catalog, "m5.large")
	big, _ := cloud.Find(catalog, "m5n.4xlarge")
	app := streamingApp(t)
	lSmall := s.Measure(app, small, 1, sim.Want{}).P90LatencyMS
	lBig := s.Measure(app, big, 1, sim.Want{}).P90LatencyMS
	if lBig >= lSmall {
		t.Fatalf("latency on m5n.4xlarge (%v) not below m5.large (%v)", lBig, lSmall)
	}
}

func TestSelectRejectsBatch(t *testing.T) {
	sys, meter := trained(t)
	batch, _ := workload.ByName("Spark-lr")
	if _, err := Select(sys, batch, meter); err == nil {
		t.Fatal("batch workload accepted by latency selector")
	}
}

func TestSelectBasics(t *testing.T) {
	sys, meter := trained(t)
	meter.Reset()
	res, err := Select(sys, streamingApp(t), meter)
	if err != nil {
		t.Fatal(err)
	}
	if res.OnlineRuns != 4 || meter.Runs() != 4 {
		t.Fatalf("online runs = %d/%d, want 4", res.OnlineRuns, meter.Runs())
	}
	if len(res.Ranking) != len(catalog) {
		t.Fatalf("ranking size %d", len(res.Ranking))
	}
	if res.Ranking[0] != res.Best {
		t.Fatal("best not first in ranking")
	}
	// Ranking ascending by predicted latency.
	for i := 1; i < len(res.Ranking); i++ {
		if res.PredictedLatencyMS[res.Ranking[i]] < res.PredictedLatencyMS[res.Ranking[i-1]] {
			t.Fatal("ranking not ascending")
		}
	}
	// Observed VMs pinned to measurements.
	for vm, lat := range res.ObservedLatencyMS {
		if lat > 0 && res.PredictedLatencyMS[vm] != lat {
			t.Fatalf("observed %s predicted %v, measured %v", vm, res.PredictedLatencyMS[vm], lat)
		}
	}
}

func TestSelectQuality(t *testing.T) {
	// The latency pick must land within 2.5x of the exhaustive optimum —
	// far better than the median VM.
	sys, meter := trained(t)
	app := streamingApp(t)
	res, err := Select(sys, app, meter)
	if err != nil {
		t.Fatal(err)
	}
	_, bestLat, err := ExhaustiveBest(meter.Sim, app, catalog, 999)
	if err != nil {
		t.Fatal(err)
	}
	pickedLat := meter.Sim.Measure(app, mustVM(t, res.Best), 999, sim.Want{}).P90LatencyMS
	if pickedLat > 2.5*bestLat {
		t.Fatalf("picked %s at %.1f ms vs optimum %.1f ms", res.Best, pickedLat, bestLat)
	}
	// And better than the median of the catalog.
	var all []float64
	for _, vm := range catalog {
		all = append(all, meter.Sim.Measure(app, vm, 999, sim.Want{}).P90LatencyMS)
	}
	median := medianOf(all)
	if pickedLat >= median {
		t.Fatalf("picked latency %.1f ms not below catalog median %.1f ms", pickedLat, median)
	}
}

func TestExhaustiveBestRejectsBatch(t *testing.T) {
	batch, _ := workload.ByName("Spark-lr")
	if _, _, err := ExhaustiveBest(sim.New(sim.Config{Repeats: 2}), batch, catalog, 1); err == nil {
		t.Fatal("batch accepted by ExhaustiveBest")
	}
}

func mustVM(t *testing.T, name string) cloud.VMType {
	t.Helper()
	vm, err := cloud.Find(catalog, name)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func medianOf(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if math.IsNaN(cp[len(cp)/2]) {
		return 0
	}
	return cp[len(cp)/2]
}
