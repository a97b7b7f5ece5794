package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/oracle"
	"vesta/internal/sim"
)

// TestAbsorbCatalogToken: a catalog update is the second kind of epoch
// increment — epoch and catalog version advance together, the workload count
// does not, and the receiver keeps its view.
func TestAbsorbCatalogToken(t *testing.T) {
	sys, _ := trainedSystem(t)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base := snap.Workloads()
	next, err := snap.AbsorbCatalog(cloud.Update{Reprice: map[string]float64{"c5.large": 0.1234}})
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch() != 1 || next.CatalogVersion() != 1 || next.Workloads() != base {
		t.Fatalf("next token (epoch %d, catalog %d, workloads %d), want (1, 1, %d)",
			next.Epoch(), next.CatalogVersion(), next.Workloads(), base)
	}
	if snap.Epoch() != 0 || snap.CatalogVersion() != 0 {
		t.Fatal("AbsorbCatalog mutated its receiver's token")
	}
	if v, _ := snap.VM("c5.large"); v.PriceHour == 0.1234 {
		t.Fatal("reprice leaked into the receiver")
	}
	if v, ok := next.VM("c5.large"); !ok || v.PriceHour != 0.1234 {
		t.Fatalf("reprice missing from the successor: %+v ok=%v", v, ok)
	}

	// The two increment kinds interleave: absorb on top of a catalog update.
	pred, err := next.PredictFast(mustApp(t, "Spark-kmeans"), oracle.NewMeter(sim.New(sim.DefaultConfig()), 7))
	if err != nil {
		t.Fatal(err)
	}
	third, err := next.Absorb("t1", pred.LabelWeights, pred.PrunedVec)
	if err != nil {
		t.Fatal(err)
	}
	if third.Epoch() != 2 || third.CatalogVersion() != 1 || third.Workloads() != base+1 {
		t.Fatalf("interleaved token (epoch %d, catalog %d, workloads %d), want (2, 1, %d)",
			third.Epoch(), third.CatalogVersion(), third.Workloads(), base+1)
	}
}

func TestAbsorbCatalogRefusesSandboxRetire(t *testing.T) {
	sys, _ := trainedSystem(t)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.AbsorbCatalog(cloud.Update{Retire: []string{snap.Config().SandboxVM}}); err == nil ||
		!strings.Contains(err.Error(), "sandbox") {
		t.Fatalf("sandbox retire: %v", err)
	}
	if _, err := snap.AbsorbCatalog(cloud.Update{}); err == nil {
		t.Fatal("empty update accepted")
	}
}

// TestAbsorbCatalogDeterministicAtVersion: two independent lineages applying
// the same update sequence land on the same (epoch, catalog version) with
// bit-identical predictions — the determinism half of the acceptance
// contract for catalog-stamped rankings.
func TestAbsorbCatalogDeterministicAtVersion(t *testing.T) {
	sys, _ := trainedSystem(t)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ups := []cloud.Update{
		{Retire: []string{"c4.large"}, Reprice: map[string]float64{"m5.2xlarge": 0.5}},
		{Add: cloud.GCPCatalog()},
	}
	lineage := func() *Snapshot {
		cur := snap
		for _, u := range ups {
			next, err := cur.AbsorbCatalog(u)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		return cur
	}
	a, b := lineage(), lineage()
	if a.Epoch() != b.Epoch() || a.CatalogVersion() != b.CatalogVersion() {
		t.Fatalf("tokens differ: (%d,%d) vs (%d,%d)",
			a.Epoch(), a.CatalogVersion(), b.Epoch(), b.CatalogVersion())
	}
	app := mustApp(t, "Spark-lr")
	pa, err := a.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), 9))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), 9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("identical lineages predict differently at the same (epoch, catalog version)")
	}
	// And the encodings agree byte for byte.
	var ba, bb bytes.Buffer
	if err := a.Encode(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("identical lineages encode differently")
	}
}

// TestAbsorbCatalogRankingProjection: rankings always speak the current
// catalog version — retirees disappear, newcomers are interpolated in, and
// survivors keep their trained scores.
func TestAbsorbCatalogRankingProjection(t *testing.T) {
	sys, _ := trainedSystem(t)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	app := mustApp(t, "Spark-kmeans")
	meter := func() *oracle.Meter { return oracle.NewMeter(sim.New(sim.DefaultConfig()), 11) }
	basePred, err := snap.PredictFast(app, meter())
	if err != nil {
		t.Fatal(err)
	}
	retiree := basePred.Ranking[0].VM
	if retiree == snap.Config().SandboxVM {
		retiree = basePred.Ranking[1].VM
	}
	// twin is a resource-for-resource copy of an existing type under a new
	// name: interpolation must give it exactly its twin's score (the
	// distance-0 path of interpolateScore).
	twin, ok := snap.VM("c5.2xlarge")
	if !ok {
		t.Fatal("c5.2xlarge missing from the base catalog")
	}
	twin.Name = "c5twin.2xlarge"
	next, err := snap.AbsorbCatalog(cloud.Update{
		Retire: []string{retiree},
		Add:    append(cloud.GCPCatalog(), twin),
	})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := next.PredictFast(app, meter())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(basePred.Ranking) - 1 + len(cloud.GCPCatalog()) + 1; len(pred.Ranking) != want {
		t.Fatalf("projected ranking has %d entries, want %d", len(pred.Ranking), want)
	}
	sawGCP := false
	for _, r := range pred.Ranking {
		if r.VM == retiree {
			t.Fatalf("retired %q still ranked", retiree)
		}
		if v, ok := next.VM(r.VM); !ok {
			t.Fatalf("ranking names %q, not in catalog version %d", r.VM, next.CatalogVersion())
		} else if v.Provider == cloud.ProviderGCP {
			sawGCP = true
		}
	}
	if !sawGCP {
		t.Fatal("no interpolated GCP type in the projected ranking")
	}
	// The resource twin inherits its twin's score exactly.
	scoreOf := func(p *Prediction, vm string) (float64, bool) {
		for _, r := range p.Ranking {
			if r.VM == vm {
				return r.Score, true
			}
		}
		return 0, false
	}
	orig, ok1 := scoreOf(pred, "c5.2xlarge")
	clone, ok2 := scoreOf(pred, "c5twin.2xlarge")
	if !ok1 || !ok2 || orig != clone {
		t.Fatalf("resource twin scored %v (ok %v), its twin %v (ok %v): want exact equality",
			clone, ok2, orig, ok1)
	}

	// And the projection is deterministic: the same lineage with the same
	// meter stream yields the identical ranking.
	again, err := next.PredictFast(app, meter())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pred.Ranking, again.Ranking) {
		t.Fatal("projected ranking not deterministic for a fixed (snapshot, meter stream)")
	}
}

// TestAbsorbCatalogCodecRoundTrip: the snapshot codec carries the catalog
// version and the evolved catalog; decoding reproduces the exact state, and
// version-0 snapshots stay byte-compatible with the legacy encoding (no
// catalog fields emitted).
func TestAbsorbCatalogCodecRoundTrip(t *testing.T) {
	sys, _ := trainedSystem(t)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var v0 bytes.Buffer
	if err := snap.Encode(&v0); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(v0.Bytes(), []byte(`"catalog_version"`)) {
		t.Fatal("version-0 snapshot emits catalog fields (legacy byte-compat broken)")
	}

	next, err := snap.AbsorbCatalog(cloud.Update{
		Retire:  []string{"c4.large"},
		Reprice: map[string]float64{"m5.xlarge": 0.4444},
		Add:     cloud.AzureCatalog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := next.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()), snap.Config(), snap.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epoch() != next.Epoch() || dec.CatalogVersion() != next.CatalogVersion() {
		t.Fatalf("decoded token (%d, %d), want (%d, %d)",
			dec.Epoch(), dec.CatalogVersion(), next.Epoch(), next.CatalogVersion())
	}
	if v, ok := dec.VM("m5.xlarge"); !ok || v.PriceHour != 0.4444 {
		t.Fatalf("decoded catalog lost the reprice: %+v ok=%v", v, ok)
	}
	if _, ok := dec.VM("c4.large"); ok {
		t.Fatal("decoded catalog resurrected the retiree")
	}
	var re bytes.Buffer
	if err := dec.Encode(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), re.Bytes()) {
		t.Fatal("decode → encode is not a fixed point for catalog-bearing snapshots")
	}
}
