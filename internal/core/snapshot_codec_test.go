package core

import (
	"bytes"
	"strings"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// codecFixture trains a system and absorbs one target so the encoded snapshot
// carries a non-zero epoch and an absorb-grown graph.
func codecFixture(t *testing.T) (*Snapshot, Config, []cloud.VMType) {
	t.Helper()
	cfg := Config{Seed: 1}
	catalog := cloud.Catalog120()
	sys, err := New(cfg, catalog)
	if err != nil {
		t.Fatal(err)
	}
	meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), 1)
	if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), meter); err != nil {
		t.Fatal(err)
	}
	base, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.ByName("Spark-kmeans")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := base.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), 42))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := base.Absorb("codec-target", pred.LabelWeights, pred.PrunedVec)
	if err != nil {
		t.Fatal(err)
	}
	return snap, cfg, catalog
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	snap, cfg, catalog := codecFixture(t)
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()), cfg, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epoch() != snap.Epoch() || dec.Workloads() != snap.Workloads() {
		t.Fatalf("decoded token (%d, %d), want (%d, %d)",
			dec.Epoch(), dec.Workloads(), snap.Epoch(), snap.Workloads())
	}
	if !dec.HasWorkload("codec-target") {
		t.Fatal("absorbed workload lost in round trip")
	}

	// Re-encoding the decoded snapshot reproduces the exact bytes: Encode is
	// a fixed point, which is what lets recovery tests use it as a state
	// fingerprint.
	var buf2 bytes.Buffer
	if err := dec.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("encode(decode(encode(x))) != encode(x)")
	}

	// Behavioral equality, not just structural: predictions against the
	// decoded snapshot match the original bit-for-bit.
	app, err := workload.ByName("Spark-grep")
	if err != nil {
		t.Fatal(err)
	}
	want, err := snap.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), 7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), 7))
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.Name != want.Best.Name || got.MatchDistance != want.MatchDistance {
		t.Fatalf("decoded prediction diverges: best %q vs %q", got.Best.Name, want.Best.Name)
	}
	for i, r := range want.Ranking {
		if got.Ranking[i] != r {
			t.Fatalf("ranking[%d] = %+v, want %+v", i, got.Ranking[i], r)
		}
	}

	// And further absorbs on the decoded snapshot behave like the original's:
	// the K-Means refit draws from the persisted source vectors and seed.
	pred2, err := snap.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), 9))
	if err != nil {
		t.Fatal(err)
	}
	next1, err := snap.Absorb("second-target", pred2.LabelWeights, pred2.PrunedVec)
	if err != nil {
		t.Fatal(err)
	}
	next2, err := dec.Absorb("second-target", pred2.LabelWeights, pred2.PrunedVec)
	if err != nil {
		t.Fatal(err)
	}
	var e1, e2 bytes.Buffer
	if err := next1.Encode(&e1); err != nil {
		t.Fatal(err)
	}
	if err := next2.Encode(&e2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
		t.Fatal("absorb after decode diverges from absorb before encode")
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	_, cfg, catalog := codecFixture(t)
	if _, err := DecodeSnapshot(strings.NewReader("not json"), cfg, catalog); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeSnapshot(strings.NewReader(`{"epoch":1,"knowledge":{}}`), cfg, catalog); err == nil {
		t.Fatal("empty knowledge accepted")
	}
}
