package serve

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/metrics"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// TestMemoMeterKeysVMPhysics: the memo keys a VM by everything the simulator
// reads of it, so a type re-specified under its old name (retired and
// re-added by one catalog update) is measured afresh, field by field, while
// a reprice alone still recalls the memoized measurement, re-priced: the
// recall equals a fresh measurement at the new price, field by field.
func TestMemoMeterKeysVMPhysics(t *testing.T) {
	app, err := workload.ByName("Spark-lr")
	if err != nil {
		t.Fatal(err)
	}
	vm := cloud.ByName(cloud.Catalog120())["t3a.2xlarge"]
	simulator := sim.New(sim.Config{Repeats: 3})
	cache := newProfileLRU(64)
	m := &memoMeter{sim: simulator, seed: 5, cache: cache}
	m.TryProfile(app, vm)
	m.TryTime(app, vm)
	kept := metrics.FeaturesOf([]int{2, 5, 7, 8})
	lean := &memoMeter{sim: simulator, seed: 5, cache: cache, features: kept}
	lean.TryProfile(app, vm)

	variants := map[string]func(*cloud.VMType){
		"VCPUs":       func(v *cloud.VMType) { v.VCPUs *= 4 },
		"MemoryGiB":   func(v *cloud.VMType) { v.MemoryGiB *= 4 },
		"CPUFactor":   func(v *cloud.VMType) { v.CPUFactor *= 1.5 },
		"DiskMBps":    func(v *cloud.VMType) { v.DiskMBps *= 3 },
		"NetworkGbps": func(v *cloud.VMType) { v.NetworkGbps *= 3 },
		"Burstable":   func(v *cloud.VMType) { v.Burstable = !v.Burstable },
	}
	for field, change := range variants {
		re := vm
		change(&re)
		_, missesBefore := cache.counters()
		p, _ := m.TryProfile(app, re)
		tm, _ := m.TryTime(app, re)
		if _, misses := cache.counters(); misses != missesBefore+2 {
			t.Errorf("%s: a re-specified %s was recalled from the memo (%d misses, want %d)",
				field, vm.Name, misses-missesBefore, 2)
		}
		if want := simulator.ProfileRun(app, re, 5); !reflect.DeepEqual(p, want) {
			t.Errorf("%s: profile of the re-specified type has P90 %v, a fresh measurement %v",
				field, p.P90Seconds, want.P90Seconds)
		}
		if want := simulator.ProfileTimed(app, re, 5); !reflect.DeepEqual(tm, want) {
			t.Errorf("%s: timing of the re-specified type has P90 %v, a fresh measurement %v",
				field, tm.P90Seconds, want.P90Seconds)
		}
	}

	repriced := vm
	repriced.PriceHour *= 3
	hitsBefore, _ := cache.counters()
	p, _ := m.TryProfile(app, repriced)
	lp, _ := lean.TryProfile(app, repriced)
	tm, _ := m.TryTime(app, repriced)
	if hits, _ := cache.counters(); hits != hitsBefore+3 {
		t.Fatalf("a reprice missed the memo: %d hits, want 3", hits-hitsBefore)
	}
	if want := simulator.ProfileRun(app, repriced, 5); !reflect.DeepEqual(p, want) {
		t.Errorf("recalled profile after a reprice costs %v at %v/h, a fresh measurement %v at %v/h",
			p.CostUSD, p.VM.PriceHour, want.CostUSD, want.VM.PriceHour)
	}
	if want := simulator.ProfileFeatures(app, repriced, 5, kept); !sameProfile(lp, want) {
		t.Errorf("recalled features profile after a reprice costs %v at %v/h, a fresh measurement %v at %v/h",
			lp.CostUSD, lp.VM.PriceHour, want.CostUSD, want.VM.PriceHour)
	}
	if want := simulator.ProfileTimed(app, repriced, 5); !reflect.DeepEqual(tm, want) {
		t.Errorf("recalled timing after a reprice costs %v, a fresh measurement %v", tm.CostUSD, want.CostUSD)
	}
}

// sameProfile reports whether a and b are equal, with the correlation
// vectors compared bit for bit (NaN components included).
func sameProfile(a, b sim.Profile) bool {
	for i := range a.Corr {
		if math.Float64bits(a.Corr[i]) != math.Float64bits(b.Corr[i]) {
			return false
		}
	}
	a.Corr, b.Corr = metrics.CorrVector{}, metrics.CorrVector{}
	return reflect.DeepEqual(a, b)
}

// TestMemoMeterFeatureSetKeySpace: profiles measured for different feature
// sets live in different key spaces: none answers a lookup for another set,
// each recalls only its own entry, and each holds NaN exactly outside its
// set.
func TestMemoMeterFeatureSetKeySpace(t *testing.T) {
	app, err := workload.ByName("Hadoop-kmeans")
	if err != nil {
		t.Fatal(err)
	}
	vm := cloud.ByName(cloud.Catalog120())["m5.xlarge"]
	simulator := sim.New(sim.Config{Repeats: 3})
	cache := newProfileLRU(16)
	sets := []metrics.FeatureSet{
		metrics.AllFeatures,
		metrics.FeaturesOf([]int{2, 5, 7, 8}),
		metrics.FeaturesOf([]int{5, 6, 7}),
		1 << metrics.DiskToNetwork,
	}
	first := make([]sim.Profile, len(sets))
	for i, feats := range sets {
		m := &memoMeter{sim: simulator, seed: 9, cache: cache, features: feats}
		first[i], _ = m.TryProfile(app, vm)
		if hits, misses := cache.counters(); hits != 0 || misses != int64(i+1) {
			t.Fatalf("set %010b: hits %d misses %d, want 0 and %d: another set's entry answered",
				feats, hits, misses, i+1)
		}
		for j, v := range first[i].Corr {
			if feats.Has(j) == math.IsNaN(v) {
				t.Fatalf("set %010b: %s = %v", feats, metrics.CorrelationNames[j], v)
			}
		}
		if want := simulator.ProfileFeatures(app, vm, 9, feats); !sameProfile(first[i], want) {
			t.Fatalf("set %010b: memo meter profile differs from ProfileFeatures", feats)
		}
	}
	for i := len(sets) - 1; i >= 0; i-- {
		m := &memoMeter{sim: simulator, seed: 9, cache: cache, features: sets[i]}
		p, _ := m.TryProfile(app, vm)
		if !sameProfile(p, first[i]) {
			t.Fatalf("set %010b recalled another set's profile", sets[i])
		}
	}
	if hits, misses := cache.counters(); hits != int64(len(sets)) || misses != int64(len(sets)) || cache.len() != len(sets) {
		t.Fatalf("after recall: hits %d misses %d len %d, want %d each", hits, misses, cache.len(), len(sets))
	}
}

// TestCatalogReAddServesNewPhysics: a catalog update that retires a VM type
// and re-adds it under the same name with four times the vCPUs and memory
// must not let the profile memo answer with the old hardware's times. After
// the update the server answers a request whose campaign profiled the type
// before with the bytes Snapshot.PredictFast gives on the new snapshot
// through the unmemoized oracle.NewMeter.
func TestCatalogReAddServesNewPhysics(t *testing.T) {
	s := newTestServer(t, Config{})
	old := s.Snapshot()
	app, err := workload.ByName("Spark-lr")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{App: app.Name, Seed: 3, Top: 5}
	resolved, _, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	predict := func(snap *core.Snapshot) *core.Prediction {
		t.Helper()
		pred, err := snap.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), resolved.Seed))
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	// Re-specify a type the campaign picks at random. The update retires it
	// and every type after it and re-adds them in order, so the catalog
	// order, and with it the campaign's picks, stay as they were.
	cat := old.Catalog()
	at := -1
	for i, vm := range cat {
		if _, picked := predict(old).ObservedSec[vm.Name]; picked && vm.Name != old.Config().SandboxVM {
			at = i
			break
		}
	}
	if at < 0 {
		t.Fatal("the campaign picked no VM besides the sandbox")
	}
	update := cloud.Update{Add: append([]cloud.VMType(nil), cat[at:]...)}
	for _, vm := range cat[at:] {
		update.Retire = append(update.Retire, vm.Name)
	}
	x := &update.Add[0]
	x.VCPUs *= 4
	x.MemoryGiB *= 4

	if _, err := s.PredictBytes(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateCatalog(update); err != nil {
		t.Fatal(err)
	}
	got, err := s.PredictBytes(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	before, after := predict(old), predict(snap)
	if b, a := before.ObservedSec[x.Name], after.ObservedSec[x.Name]; a == 0 || a == b {
		t.Fatalf("%s measured %v s before the update and %v s after: the test misses its case", x.Name, b, a)
	}
	want, err := s.encodeResponse(snap, resolved, after, sim.DefaultConfig().Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("after re-adding %s with %d vCPUs:\n got: %s\nwant: %s", x.Name, x.VCPUs, got, want)
	}
}
