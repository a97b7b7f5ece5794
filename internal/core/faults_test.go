package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"vesta/internal/chaos"
	"vesta/internal/cloud"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// flakyService wraps a meter and deterministically fails every measurement
// on the configured VM names, exercising the degradation paths without
// involving the chaos engine's randomness.
type flakyService struct {
	inner   *oracle.Meter
	failVMs map[string]bool
}

func (f *flakyService) TryProfile(app workload.App, vm cloud.VMType) (sim.Profile, error) {
	if f.failVMs[vm.Name] {
		return sim.Profile{}, errors.New("flaky: injected failure on " + vm.Name)
	}
	return f.inner.TryProfile(app, vm)
}

func (f *flakyService) TryTime(app workload.App, vm cloud.VMType) (sim.Timing, error) {
	if f.failVMs[vm.Name] {
		return sim.Timing{}, errors.New("flaky: injected failure on " + vm.Name)
	}
	return f.inner.TryTime(app, vm)
}

func (f *flakyService) Runs() int             { return f.inner.Runs() }
func (f *flakyService) SimConfig() sim.Config { return f.inner.SimConfig() }

// smallCatalog is the sandbox VM plus five others — enough structure for the
// degradation tests without the cost of the 120-type catalog.
func smallCatalog(t *testing.T) []cloud.VMType {
	t.Helper()
	sandbox, ok := cloud.ByName(catalog)["m5.xlarge"]
	if !ok {
		t.Fatal("sandbox VM missing from catalog")
	}
	small := []cloud.VMType{sandbox}
	for _, vm := range catalog {
		if len(small) == 6 {
			break
		}
		if vm.Name != sandbox.Name {
			small = append(small, vm)
		}
	}
	return small
}

// smallTrainedSystem trains a compact Vesta instance (6 sources, 6 VM types,
// k=3) through the given service. Fast enough to retrain per test.
func smallTrainedSystem(t *testing.T, svc oracle.Service) *System {
	t.Helper()
	sys, err := New(Config{Seed: 1, K: 3}, smallCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainOffline(workload.BySet(workload.SourceTraining)[:6], svc); err != nil {
		t.Fatal(err)
	}
	return sys
}

func smallMeter() *oracle.Meter {
	return oracle.NewMeter(sim.New(sim.Config{Repeats: 3}), 1)
}

func TestPredictOnlineSandboxFailed(t *testing.T) {
	sys := smallTrainedSystem(t, smallMeter())
	flaky := &flakyService{inner: smallMeter(), failVMs: map[string]bool{sys.Config().SandboxVM: true}}
	_, err := sys.PredictOnline(mustApp(t, "Spark-lr"), flaky)
	if !errors.Is(err, ErrSandboxFailed) {
		t.Fatalf("want ErrSandboxFailed, got %v", err)
	}
}

// TestPredictOnlineSubstitutesFailedReference: when one of the random
// reference VMs fails, the predictor walks to the next VM in the permutation
// and still initializes from a full set of observations.
func TestPredictOnlineSubstitutesFailedReference(t *testing.T) {
	sys := smallTrainedSystem(t, smallMeter())
	target := mustApp(t, "Spark-lr")

	base, err := sys.PredictOnline(target, smallMeter())
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for vm := range base.ObservedSec {
		if vm != sys.Config().SandboxVM {
			victim = vm
			break
		}
	}
	if victim == "" {
		t.Fatal("baseline prediction observed no random VMs")
	}

	flaky := &flakyService{inner: smallMeter(), failVMs: map[string]bool{victim: true}}
	pred, err := sys.PredictOnline(target, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if pred.InitFailures != 1 {
		t.Fatalf("InitFailures = %d, want 1", pred.InitFailures)
	}
	if _, seen := pred.ObservedSec[victim]; seen {
		t.Fatalf("failed VM %s appears in observations", victim)
	}
	// Sandbox + 3 picks: the failed pick was substituted, not dropped.
	if len(pred.ObservedSec) != 4 {
		t.Fatalf("observed %d VMs, want 4 (substitution)", len(pred.ObservedSec))
	}
	if pred.Best.Name == "" {
		t.Fatal("no best VM predicted")
	}
}

// TestPredictOnlineSandboxOnlyCalibration: with every non-sandbox VM failing
// there are zero surviving random observations; the prediction degrades to a
// sandbox-anchored calibration instead of erroring out.
func TestPredictOnlineSandboxOnlyCalibration(t *testing.T) {
	sys := smallTrainedSystem(t, smallMeter())
	sandbox := sys.Config().SandboxVM
	fail := map[string]bool{}
	for _, vm := range smallCatalog(t) {
		if vm.Name != sandbox {
			fail[vm.Name] = true
		}
	}
	flaky := &flakyService{inner: smallMeter(), failVMs: fail}
	pred, err := sys.PredictOnline(mustApp(t, "Spark-lr"), flaky)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.ObservedSec) != 1 {
		t.Fatalf("observed %d VMs, want sandbox only", len(pred.ObservedSec))
	}
	if pred.InitFailures != len(fail) {
		t.Fatalf("InitFailures = %d, want %d (whole permutation exhausted)", pred.InitFailures, len(fail))
	}
	// The sandbox observation is authoritative and anchors the time scale.
	if got := pred.PredictedSec[sandbox]; got != pred.ObservedSec[sandbox] {
		t.Fatalf("sandbox predicted %v, measured %v", got, pred.ObservedSec[sandbox])
	}
	for vm, sec := range pred.PredictedSec {
		if math.IsNaN(sec) || sec <= 0 {
			t.Fatalf("degraded prediction for %s is %v", vm, sec)
		}
	}
}

func TestCollectOfflineCountsSkippedCells(t *testing.T) {
	small := smallCatalog(t)
	sys, err := New(Config{Seed: 1, K: 3}, small)
	if err != nil {
		t.Fatal(err)
	}
	sources := workload.BySet(workload.SourceTraining)[:4]
	victim := small[1].Name
	flaky := &flakyService{inner: smallMeter(), failVMs: map[string]bool{victim: true}}

	data := sys.CollectOffline(sources, flaky)
	if data.SkippedCells != len(sources) {
		t.Fatalf("SkippedCells = %d, want %d (one per source)", data.SkippedCells, len(sources))
	}
	if len(data.DroppedSources) != 0 {
		t.Fatalf("sandbox survived but sources dropped: %v", data.DroppedSources)
	}
	if len(data.Sources) != len(sources) {
		t.Fatalf("kept %d sources, want %d", len(data.Sources), len(sources))
	}
	for _, app := range sources {
		if _, ok := data.Times[app.Name][victim]; ok {
			t.Fatalf("failed cell (%s, %s) present in Times", app.Name, victim)
		}
	}
	// The model trains without the missing column.
	if err := sys.TrainFromData(data); err != nil {
		t.Fatal(err)
	}
	if k := sys.Knowledge(); k.SkippedCells != len(sources) {
		t.Fatalf("Knowledge.SkippedCells = %d, want %d", k.SkippedCells, len(sources))
	}
}

func TestCollectOfflineDropsSourcesWithoutSandbox(t *testing.T) {
	sys, err := New(Config{Seed: 1, K: 3}, smallCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	sources := workload.BySet(workload.SourceTraining)[:4]
	flaky := &flakyService{inner: smallMeter(), failVMs: map[string]bool{sys.Config().SandboxVM: true}}

	data := sys.CollectOffline(sources, flaky)
	if len(data.DroppedSources) != len(sources) || len(data.Sources) != 0 {
		t.Fatalf("dropped %d of %d sources, want all (no feature vectors)",
			len(data.DroppedSources), len(sources))
	}
	if err := sys.TrainFromData(data); err == nil {
		t.Fatal("training with zero surviving sources accepted")
	}
}

func TestTrainFromDataRejectsInvalidVectors(t *testing.T) {
	sys, err := New(Config{Seed: 1, K: 3}, smallCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	sources := workload.BySet(workload.SourceTraining)[:6]
	data := sys.CollectOffline(sources, smallMeter())
	poisoned := data.Sources[1].Name
	data.RawVecs[1][0] = math.NaN()

	if err := sys.TrainFromData(data); err != nil {
		t.Fatal(err)
	}
	k := sys.Knowledge()
	if k.InvalidVectors != 1 {
		t.Fatalf("InvalidVectors = %d, want 1", k.InvalidVectors)
	}
	if len(k.SourceNames) != len(sources)-1 {
		t.Fatalf("%d sources trained, want %d", len(k.SourceNames), len(sources)-1)
	}
	for _, name := range k.SourceNames {
		if name == poisoned {
			t.Fatalf("poisoned source %s survived training", name)
		}
	}
}

// TestChaoticTrainingDeterministicAcrossWorkers: the full offline pipeline —
// chaos-injected simulator, resilient meter with retries, graceful
// degradation in collection — must serialize byte-identical knowledge at
// every worker count.
func TestChaoticTrainingDeterministicAcrossWorkers(t *testing.T) {
	train := func(workers int) []byte {
		s := sim.New(sim.Config{Repeats: 3, Chaos: chaos.NewPlan(42, chaos.Uniform(0.1))})
		svc := oracle.NewResilient(oracle.NewMeter(s, 1), oracle.RetryPolicy{MaxRetries: 2})
		sys, err := New(Config{Seed: 1, K: 3, Workers: workers}, smallCatalog(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.TrainOffline(workload.BySet(workload.SourceTraining)[:6], svc); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sys.SaveKnowledge(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := train(1)
	for _, w := range []int{2, 4} {
		if !bytes.Equal(train(w), ref) {
			t.Fatalf("chaotic knowledge at workers=%d differs from workers=1", w)
		}
	}
}
