package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"vesta/internal/cmf"
	"vesta/internal/mat"
	"vesta/internal/oracle"
	"vesta/internal/rng"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

func planMeter(seed uint64) *oracle.Meter {
	return oracle.NewMeter(sim.New(sim.DefaultConfig()), seed)
}

// planSnapshot returns a fresh snapshot of a freshly trained system (no
// sharing — these tests exercise plan build paths, so each needs its own
// lineage).
func planSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	sys, _ := trainedSystem(t)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestPredictFastDeterministicAcrossPlanOrigins is the fast-path
// determinism contract: the prediction must be bit-identical whether the
// plan was built lazily by the first request, eagerly via PreparePlan, or
// restored from an encoded checkpoint.
func TestPredictFastDeterministicAcrossPlanOrigins(t *testing.T) {
	app := mustApp(t, "Spark-lr")

	lazy := planSnapshot(t)
	fromLazy, err := lazy.PredictFast(app, planMeter(7))
	if err != nil {
		t.Fatal(err)
	}

	eager := planSnapshot(t)
	if err := eager.PreparePlan(); err != nil {
		t.Fatal(err)
	}
	fromEager, err := eager.PredictFast(app, planMeter(7))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := lazy.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(&buf, lazy.Config(), lazy.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.sys.plan.peek() == nil {
		t.Fatal("decoded snapshot did not restore the precomputed plan")
	}
	fromDecoded, err := decoded.PredictFast(app, planMeter(7))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(fromLazy, fromEager) {
		t.Fatal("lazy-plan and eager-plan predictions differ")
	}
	if !reflect.DeepEqual(fromLazy, fromDecoded) {
		t.Fatal("lazy-plan and decoded-plan predictions differ")
	}
}

// TestPlanSharedAcrossAbsorb: an absorbed snapshot inherits the lineage's
// plan holder instead of re-solving, and PredictFast keeps working across
// epochs.
func TestPlanSharedAcrossAbsorb(t *testing.T) {
	snap := planSnapshot(t)
	app := mustApp(t, "Spark-lr")
	pred, err := snap.PredictFast(app, planMeter(7))
	if err != nil {
		t.Fatal(err)
	}
	next, err := snap.Absorb("plan-target", pred.LabelWeights, pred.PrunedVec)
	if err != nil {
		t.Fatal(err)
	}
	if next.sys.plan != snap.sys.plan {
		t.Fatal("absorbed snapshot does not share the lineage plan holder")
	}
	again, err := next.PredictFast(app, planMeter(7))
	if err != nil {
		t.Fatal(err)
	}
	// Same plan, new knowledge (K-Means refit): the prediction is still a
	// pure function of (snapshot, request).
	repeat, err := next.PredictFast(app, planMeter(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, repeat) {
		t.Fatal("post-absorb PredictFast is not deterministic")
	}
}

// TestDecodeSnapshotWithoutPlanField: checkpoints written before the plan
// field existed must still decode, with the plan rebuilt lazily to the
// exact same state.
func TestDecodeSnapshotWithoutPlanField(t *testing.T) {
	snap := planSnapshot(t)
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["plan"]; !ok {
		t.Fatal("encoded snapshot is missing the plan field")
	}
	delete(raw, "plan")
	legacy, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(bytes.NewReader(legacy), snap.Config(), snap.Catalog())
	if err != nil {
		t.Fatalf("legacy snapshot without plan field failed to decode: %v", err)
	}
	if decoded.sys.plan.peek() != nil {
		t.Fatal("plan appeared from nowhere on a legacy snapshot")
	}
	app := mustApp(t, "Spark-lr")
	want, err := snap.PredictFast(app, planMeter(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decoded.PredictFast(app, planMeter(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("lazily rebuilt plan predicts differently than the original")
	}
}

// TestDecodeSnapshotRejectsMalformedPlan: factors that do not match the
// knowledge shapes must fail decoding loudly instead of serving garbage.
func TestDecodeSnapshotRejectsMalformedPlan(t *testing.T) {
	snap := planSnapshot(t)
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var sj map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &sj); err != nil {
		t.Fatal(err)
	}
	sj["plan"] = json.RawMessage(`{"x":[[1,2]],"t":[[3,4]],"l":[[5,6]],"epochs":1}`)
	mangled, err := json.Marshal(sj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(bytes.NewReader(mangled), snap.Config(), snap.Catalog()); err == nil ||
		!strings.Contains(err.Error(), "plan factors") {
		t.Fatalf("malformed plan accepted: err=%v", err)
	}
}

// TestEncodeDeterministicRegardlessOfPlanState: encoding forces the plan, so
// a snapshot encoded before any request and one encoded after serving must
// produce identical bytes — the crash tests' state-fingerprint property.
func TestEncodeDeterministicRegardlessOfPlanState(t *testing.T) {
	fresh := planSnapshot(t)
	var before bytes.Buffer
	if err := fresh.Encode(&before); err != nil {
		t.Fatal(err)
	}
	served := planSnapshot(t)
	if _, err := served.PredictFast(mustApp(t, "Spark-lr"), planMeter(7)); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := served.Encode(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("plan state leaked into the encoded bytes")
	}
}

// priorPlanEncoding re-encodes snap with the plan field rebuilt the way
// releases that warm-started serve-time SGD wrote it: the full result of the
// plan solve — source factors X and T, label factors L and the epoch count,
// in that field order.
func priorPlanEncoding(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	s, k := snap.sys, snap.sys.knowledge
	res, err := cmf.Solve(cmf.Problem{
		U: mat.FromRows(k.SourceMemberships), V: k.Graph.LV().T(),
		UStar: mat.New(1, len(k.Labels)), Mask: mat.New(1, len(k.Labels)),
	}, s.planCMFConfig(), rng.New(s.cfg.Seed^planSalt))
	if err != nil {
		t.Fatal(err)
	}
	prior, err := json.Marshal(struct {
		X      [][]float64 `json:"x"`
		T      [][]float64 `json:"t"`
		L      [][]float64 `json:"l"`
		Epochs int         `json:"epochs"`
	}{matrixRows(res.X), matrixRows(res.T), matrixRows(res.L), res.Epochs})
	if err != nil {
		t.Fatal(err)
	}
	raw["plan"] = prior
	out, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPlanFieldKeepsPriorFormat: the fold-in reads only L, but checkpoints
// keep the plan format of releases that warm-started serve-time SGD, so a
// checkpoint is byte-identical across the upgrade and either binary restarts
// from the other's. The decoded plan is ready (no plan solve on recovery),
// predicts exactly like a plan built fresh, and re-encodes to the same bytes.
func TestPlanFieldKeepsPriorFormat(t *testing.T) {
	fresh := planSnapshot(t)
	prior := priorPlanEncoding(t, fresh)
	var current bytes.Buffer
	if err := fresh.Encode(&current); err != nil {
		t.Fatal(err)
	}
	// json.Marshal of the generic map drops Encode's trailing newline and
	// sorts top-level keys; compare after the same normalization.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(current.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	normalized, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalized, prior) {
		t.Fatal("plan field differs from the prior release's encoding")
	}
	decoded, err := DecodeSnapshot(bytes.NewReader(prior), fresh.Config(), fresh.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.PlanReady() {
		t.Fatal("plan field was not restored")
	}
	for _, name := range []string{"Spark-lr", "Spark-kmeans"} {
		want, err := fresh.PredictFast(mustApp(t, name), planMeter(7))
		if err != nil {
			t.Fatal(err)
		}
		got, err := decoded.PredictFast(mustApp(t, name), planMeter(7))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded-checkpoint prediction differs from the fresh plan's", name)
		}
	}
	var again bytes.Buffer
	if err := decoded.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(current.Bytes(), again.Bytes()) {
		t.Fatal("decoded checkpoint does not re-encode to the same bytes")
	}
}

// TestPredictFastFoldInFailureFallsBack: when the fold-in cannot place the
// target (here the plan's label factors overflow the ridge system), the
// prediction degrades to the raw sandbox memberships with Converged false,
// measuring exactly what a placed prediction measures, instead of erroring
// or serving NaNs.
func TestPredictFastFoldInFailureFallsBack(t *testing.T) {
	snap := planSnapshot(t)
	app := mustApp(t, "Spark-lr")
	base, err := snap.PredictFast(app, planMeter(7))
	if err != nil {
		t.Fatal(err)
	}
	if !base.Converged {
		t.Fatalf("fixture: the real plan must place %s", app.Name)
	}
	huge := snap.sys.plan.peek().l.Clone()
	for i := range huge.Data {
		huge.Data[i] = 1e300
	}
	snap.sys.plan = &planHolder{done: true, plan: &predictPlan{l: huge}}
	pred, err := snap.PredictFast(app, planMeter(7))
	if err != nil {
		t.Fatal(err)
	}
	if pred.Converged {
		t.Fatal("failed fold-in reported converged")
	}
	k := snap.sys.knowledge
	if raw := sharpMemberships(k.KM, pred.PrunedVec, k.Sigma); !reflect.DeepEqual(pred.LabelWeights, raw) {
		t.Fatalf("label weights %v, want the raw sandbox memberships %v", pred.LabelWeights, raw)
	}
	if pred.OnlineRuns != base.OnlineRuns || !reflect.DeepEqual(pred.ObservedSec, base.ObservedSec) {
		t.Fatal("fallback changed what was measured")
	}
}

// TestPredictOnlineIsPredictFast pins the single transfer arm: over the 12
// Spark targets, System.PredictOnline, PredictBatch at 1 and 4 workers,
// Snapshot.PredictFast and a decoded snapshot's PredictFast all return the
// same predictions, on the trained knowledge and again after one absorb.
func TestPredictOnlineIsPredictFast(t *testing.T) {
	sys, _ := trainedSystem(t)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	targets := workload.TargetSet()
	if len(targets) != 12 {
		t.Fatalf("%d targets, want the 12 Spark apps", len(targets))
	}
	check := func(stage string, snap *Snapshot) {
		t.Helper()
		// The 4-worker batch runs first, so on the trained stage its workers
		// race to build the plan.
		var batches [][]*Prediction
		for _, workers := range []int{4, 1} {
			pool := *sys
			pool.cfg.Workers = workers
			batch, err := pool.PredictBatch(targets, func(int) oracle.Service { return planMeter(7) })
			if err != nil {
				t.Fatal(err)
			}
			batches = append(batches, batch)
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeSnapshot(&buf, snap.Config(), snap.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		for i, app := range targets {
			want, err := sys.PredictOnline(app, planMeter(7))
			if err != nil {
				t.Fatal(err)
			}
			arms := map[string]*Prediction{"batch-w4": batches[0][i], "batch-w1": batches[1][i]}
			if arms["snapshot"], err = snap.PredictFast(app, planMeter(7)); err != nil {
				t.Fatal(err)
			}
			if arms["decoded"], err = decoded.PredictFast(app, planMeter(7)); err != nil {
				t.Fatal(err)
			}
			for name, got := range arms {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s: %s prediction differs from PredictOnline", stage, app.Name, name)
				}
			}
		}
	}
	check("trained", snap)

	pred, err := sys.PredictOnline(targets[0], planMeter(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AbsorbTarget("absorbed", pred.LabelWeights, pred.PrunedVec); err != nil {
		t.Fatal(err)
	}
	next, err := snap.Absorb("absorbed", pred.LabelWeights, pred.PrunedVec)
	if err != nil {
		t.Fatal(err)
	}
	check("after absorb", next)
}

// TestInstallingKnowledgeResetsPlan: TrainFromData and LoadKnowledge give
// the system a new, unbuilt plan, while a snapshot taken earlier keeps the
// built plan of the knowledge it copied.
func TestInstallingKnowledgeResetsPlan(t *testing.T) {
	sys, err := New(Config{Seed: 1, K: 3}, smallCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	data := sys.CollectOffline(workload.BySet(workload.SourceTraining)[:6], smallMeter())
	if err := sys.TrainFromData(data); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.PreparePlan(); err != nil {
		t.Fatal(err)
	}
	built := snap.sys.plan
	if sys.plan != built {
		t.Fatal("snapshot does not share the system's plan holder")
	}
	var saved bytes.Buffer
	if err := sys.SaveKnowledge(&saved); err != nil {
		t.Fatal(err)
	}
	for name, install := range map[string]func() error{
		"TrainFromData": func() error { return sys.TrainFromData(data) },
		"LoadKnowledge": func() error { return sys.LoadKnowledge(bytes.NewReader(saved.Bytes())) },
	} {
		if err := install(); err != nil {
			t.Fatal(err)
		}
		if sys.plan == built || sys.plan.peek() != nil {
			t.Fatalf("%s kept the previous knowledge's plan", name)
		}
		if !snap.PlanReady() || snap.sys.plan != built {
			t.Fatalf("%s reached the earlier snapshot's plan", name)
		}
	}
}
