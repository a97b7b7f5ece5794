package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// nanService is a meter whose profiles carry NaN in the correlation
// components in nan: a stand-in for a sandbox that measured only the others.
type nanService struct {
	*oracle.Meter
	nan metrics.FeatureSet
}

func (n *nanService) TryProfile(app workload.App, vm cloud.VMType) (sim.Profile, error) {
	p, err := n.Meter.TryProfile(app, vm)
	for i := range p.Corr {
		if n.nan.Has(i) {
			p.Corr[i] = math.NaN()
		}
	}
	return p, err
}

// TestPredictReadsOnlyKeptFeatures: a sandbox profile with NaN in every
// component the knowledge pruned predicts exactly as the full profile does,
// while NaN in any kept component still fails the sandbox.
func TestPredictReadsOnlyKeptFeatures(t *testing.T) {
	sys := smallTrainedSystem(t, smallMeter())
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if w := snap.SandboxWant(); w != (sim.Want{Features: metrics.FeaturesOf(sys.knowledge.Kept)}) {
		t.Fatalf("SandboxWant %+v, knowledge keeps %v", w, sys.knowledge.Kept)
	}
	kept := snap.SandboxWant().Features
	if kept == 0 || kept == metrics.AllFeatures {
		t.Fatalf("knowledge keeps %010b: nothing to prune or nothing kept", kept)
	}
	target := mustApp(t, "Spark-lr")
	want, err := snap.PredictFast(target, smallMeter())
	if err != nil {
		t.Fatal(err)
	}
	got, err := snap.PredictFast(target, &nanService{Meter: smallMeter(), nan: metrics.AllFeatures &^ kept})
	if err != nil {
		t.Fatalf("NaN in the pruned features failed the prediction: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NaN in the pruned features changed the prediction:\n got %+v\nwant %+v", got, want)
	}
	for i := 0; i < metrics.NumCorrelations; i++ {
		if !kept.Has(i) {
			continue
		}
		_, err := snap.PredictFast(target, &nanService{Meter: smallMeter(), nan: 1 << i})
		if !errors.Is(err, ErrSandboxFailed) {
			t.Fatalf("NaN in kept %s: want ErrSandboxFailed, got %v", metrics.CorrelationNames[i], err)
		}
	}
}

// TestKeptFeaturesRawMode: a snapshot that ranks on raw metric levels keeps
// raw-metric indices, not correlation features, and asks its sandbox for
// every feature and the trace.
func TestKeptFeaturesRawMode(t *testing.T) {
	sys, err := New(Config{Seed: 1, K: 3, UseRawFeatures: true}, smallCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainOffline(workload.BySet(workload.SourceTraining)[:6], smallMeter()); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.SandboxWant(); got != (sim.Want{Features: metrics.AllFeatures, Trace: true}) {
		t.Fatalf("raw-features snapshot wants %+v of its sandbox, want the full measurement", got)
	}
}
