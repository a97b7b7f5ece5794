package oracle

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"vesta/internal/chaos"
	"vesta/internal/cloud"
	"vesta/internal/obs"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// TestMeterTryTimeMatchesTryProfile: a timing-only measurement charges the
// same run, logs the same key, records the same trace bytes and returns the
// same timing fields as a full profile.
func TestMeterTryTimeMatchesTryProfile(t *testing.T) {
	s := sim.New(sim.Config{Repeats: 3})
	full := NewMeter(s, 11).SetTracer(obs.New())
	timed := NewMeter(s, 11).SetTracer(obs.New())
	vms := cloud.Catalog120()[:12]
	for _, name := range []string{"Spark-lr", "Hadoop-twitter", "Hive-join"} {
		app, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms {
			p, err := full.TryProfile(app, vm)
			if err != nil {
				t.Fatal(err)
			}
			tm, err := timed.TryTime(app, vm)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tm, p.Timing()) {
				t.Fatalf("%s on %s: TryTime %+v, TryProfile timing %+v", name, vm.Name, tm, p.Timing())
			}
		}
	}
	if full.Runs() != timed.Runs() || timed.Runs() != 3*len(vms) {
		t.Fatalf("runs charged: TryProfile %d, TryTime %d, want %d", full.Runs(), timed.Runs(), 3*len(vms))
	}
	if !reflect.DeepEqual(full.Log(), timed.Log()) {
		t.Fatal("TryTime logged different keys than TryProfile")
	}
	var a, b bytes.Buffer
	if err := full.Tracer().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := timed.Tracer().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("trace bytes differ:\nTryProfile:\n%s\nTryTime:\n%s", a.String(), b.String())
	}
}

// TestResilientTryTimeRunsCheckedProtocol: under fault injection, TryTime
// walks the same retries, quarantines and failures as TryProfile, with the
// same accounting, and returns the timing of the profile it settled on.
func TestResilientTryTimeRunsCheckedProtocol(t *testing.T) {
	rates := chaos.Uniform(0.8)
	policy := RetryPolicy{MaxRetries: 2}
	full, app, _ := resilientFixture(rates, policy)
	timed, _, _ := resilientFixture(rates, policy)
	failures := 0
	for _, vm := range cloud.Catalog120()[:20] {
		p, perr := full.TryProfile(app, vm)
		tm, terr := timed.TryTime(app, vm)
		if (perr == nil) != (terr == nil) || (perr != nil && perr.Error() != terr.Error()) {
			t.Fatalf("%s: TryProfile error %v, TryTime error %v", vm.Name, perr, terr)
		}
		if perr != nil {
			failures++
			if !errors.Is(terr, ErrProfileFailed) && !errors.Is(terr, ErrQuarantined) {
				t.Fatalf("%s: unexpected sentinel %v", vm.Name, terr)
			}
		}
		if !reflect.DeepEqual(tm, p.Timing()) {
			t.Fatalf("%s: TryTime %+v, TryProfile timing %+v", vm.Name, tm, p.Timing())
		}
	}
	if full.Stats() != timed.Stats() || full.Runs() != timed.Runs() {
		t.Fatalf("accounting differs: TryProfile %+v (%d runs), TryTime %+v (%d runs)",
			full.Stats(), full.Runs(), timed.Stats(), timed.Runs())
	}
	if timed.Stats().Retries == 0 || failures == 0 || failures == 20 {
		t.Fatalf("fault rate exercises too little: %d retries, %d of 20 campaigns abandoned",
			timed.Stats().Retries, failures)
	}
}
