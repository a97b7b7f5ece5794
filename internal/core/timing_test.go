package core

import (
	"bytes"
	"reflect"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/obs"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// profileOnlyService is the reference measurement service: every timing is
// read off a full profile, traces and all, as if timing-only measurements
// did not exist.
type profileOnlyService struct{ *oracle.Meter }

func (s profileOnlyService) TryTime(app workload.App, vm cloud.VMType) (sim.Timing, error) {
	p, err := s.Meter.TryProfile(app, vm)
	return p.Timing(), err
}

// pipelineOutputs is everything the train / predict / optimize pipeline
// emits that a measurement service could influence.
type pipelineOutputs struct {
	snapshot    []byte
	offlineRuns int
	predictions []*Prediction // one per target
	steps       [][]oracle.Step
	trace       []byte
}

// runPipeline trains on the source workloads, then predicts every Spark
// target and runs a short
// time-budgeted optimization for each, all through meters from newMeter and
// with one tracer observing system and meters alike.
func runPipeline(t *testing.T, raw bool, newMeter func(seed uint64, tr *obs.Tracer) oracle.Service) pipelineOutputs {
	t.Helper()
	tracer := obs.New()
	sys, err := New(Config{Seed: 1, Tracer: tracer, UseRawFeatures: raw}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	var out pipelineOutputs
	data := sys.CollectOffline(workload.BySet(workload.SourceTraining), newMeter(1, tracer))
	out.offlineRuns = data.Runs
	if err := sys.TrainFromData(data); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out.snapshot = buf.Bytes()
	for _, target := range workload.ByFramework(workload.Spark) {
		if target.Set != workload.Target {
			continue
		}
		pred, err := snap.PredictFast(target, newMeter(7, tracer))
		if err != nil {
			t.Fatal(err)
		}
		out.predictions = append(out.predictions, pred)
		steps, _, err := sys.OptimizeFor(target, 8, MinimizeTime, newMeter(9, tracer))
		if err != nil {
			t.Fatal(err)
		}
		out.steps = append(out.steps, steps)
	}
	buf.Reset()
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out.trace = buf.Bytes()
	return out
}

// TestTimingOnlyMeasurementsChangeNothing is the differential contract of
// timing-only measurements: the pipeline over oracle.Meter (whose TryTime
// skips trace sampling) is indistinguishable from the pipeline over a
// reference whose every timing comes from a full profile — the knowledge
// bytes, offline run count, every prediction, every optimization step and
// every trace byte — with correlation and raw-metric features alike.
func TestTimingOnlyMeasurementsChangeNothing(t *testing.T) {
	s := sim.New(sim.Config{Repeats: 3})
	timed := func(seed uint64, tr *obs.Tracer) oracle.Service {
		return oracle.NewMeter(s, seed).SetTracer(tr)
	}
	reference := func(seed uint64, tr *obs.Tracer) oracle.Service {
		return profileOnlyService{oracle.NewMeter(s, seed).SetTracer(tr)}
	}
	for _, raw := range []bool{false, true} {
		got := runPipeline(t, raw, timed)
		want := runPipeline(t, raw, reference)
		if len(got.predictions) != 12 {
			t.Fatalf("raw=%v: %d Spark targets, want 12", raw, len(got.predictions))
		}
		if !bytes.Equal(got.snapshot, want.snapshot) {
			t.Fatalf("raw=%v: knowledge snapshot bytes differ", raw)
		}
		if got.offlineRuns != want.offlineRuns {
			t.Fatalf("raw=%v: offline runs %d, reference %d", raw, got.offlineRuns, want.offlineRuns)
		}
		for i := range got.predictions {
			if !reflect.DeepEqual(got.predictions[i], want.predictions[i]) {
				t.Fatalf("raw=%v: prediction of %s differs", raw, got.predictions[i].Target)
			}
		}
		if !reflect.DeepEqual(got.steps, want.steps) {
			t.Fatalf("raw=%v: optimization steps differ", raw)
		}
		if len(got.trace) == 0 || !bytes.Equal(got.trace, want.trace) {
			t.Fatalf("raw=%v: trace bytes differ (%d vs %d bytes)", raw, len(got.trace), len(want.trace))
		}
	}
}
