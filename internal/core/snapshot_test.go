package core

import (
	"reflect"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/oracle"
	"vesta/internal/sim"
)

func TestSnapshotBeforeTraining(t *testing.T) {
	sys, err := New(Config{Seed: 1}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(); err == nil {
		t.Fatal("snapshot of untrained system accepted")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	sys, _ := trainedSystem(t)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base := snap.Workloads()
	if snap.Epoch() != 0 {
		t.Fatalf("fresh snapshot epoch = %d", snap.Epoch())
	}

	// Predictions through the snapshot match the system bit-for-bit when fed
	// the same measurement stream.
	app := mustApp(t, "Spark-kmeans")
	fromSys, err := sys.PredictOnline(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), 7))
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := snap.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), 7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromSys, fromSnap) {
		t.Fatal("snapshot prediction diverges from system prediction")
	}

	// Mutating the system does not reach the snapshot.
	if err := sys.AbsorbTarget("sys-side", fromSys.LabelWeights, fromSys.PrunedVec); err != nil {
		t.Fatal(err)
	}
	if snap.Workloads() != base {
		t.Fatal("system mutation leaked into snapshot")
	}

	// Absorbing into the snapshot chain does not reach the system or the
	// parent snapshot.
	next, err := snap.Absorb("snap-side", fromSys.LabelWeights, fromSys.PrunedVec)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch() != 1 || next.Workloads() != base+1 {
		t.Fatalf("next = (epoch %d, workloads %d), want (1, %d)", next.Epoch(), next.Workloads(), base+1)
	}
	if snap.Workloads() != base {
		t.Fatal("Absorb mutated its receiver")
	}
	for _, w := range sys.knowledge.Graph.Workloads() {
		if w == "snap-side" {
			t.Fatal("snapshot absorb leaked into system")
		}
	}

	// The chained snapshot keeps predicting, and the b+e token holds along
	// the chain.
	third, err := next.Absorb("snap-side-2", fromSys.LabelWeights, fromSys.PrunedVec)
	if err != nil {
		t.Fatal(err)
	}
	if third.Epoch() != 2 || third.Workloads() != base+2 {
		t.Fatalf("third = (epoch %d, workloads %d)", third.Epoch(), third.Workloads())
	}
	if _, err := third.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), 7)); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotAbsorbValidation(t *testing.T) {
	sys, _ := trainedSystem(t)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pred, err := snap.PredictFast(mustApp(t, "Spark-grep"), oracle.NewMeter(sim.New(sim.DefaultConfig()), 3))
	if err != nil {
		t.Fatal(err)
	}
	// Absorbing a name that already exists must fail (the epoch token would
	// otherwise drift from the workload count).
	if _, err := snap.Absorb(snap.sys.knowledge.Graph.Workloads()[0], pred.LabelWeights, pred.PrunedVec); err == nil {
		t.Fatal("absorb of existing workload accepted")
	}
	// Mis-shaped payloads are rejected without publishing anything.
	if _, err := snap.Absorb("bad-weights", pred.LabelWeights[:1], pred.PrunedVec); err == nil {
		t.Fatal("short label weights accepted")
	}
	if _, err := snap.Absorb("bad-vec", pred.LabelWeights, pred.PrunedVec[:1]); err == nil {
		t.Fatal("short pruned vector accepted")
	}
	if snap.Workloads() != len(snap.sys.knowledge.Graph.Workloads()) {
		t.Fatal("failed absorb mutated the receiver")
	}
}

func TestSnapshotCatalogIsACopy(t *testing.T) {
	sys, _ := trainedSystem(t)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cat := snap.Catalog()
	if len(cat) != len(cloud.Catalog120()) {
		t.Fatalf("catalog length = %d", len(cat))
	}
	cat[0].Name = "mutated"
	if snap.Catalog()[0].Name == "mutated" {
		t.Fatal("Catalog returned shared backing storage")
	}
	if snap.Config().Seed != sys.Config().Seed {
		t.Fatal("config not frozen into snapshot")
	}
}
