package core

import (
	"math"
	"strings"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

var catalog = cloud.Catalog120()

// trainedSystem trains Vesta on the 13 source-training workloads once and
// shares it across tests (training is deterministic given the seed).
func trainedSystem(t *testing.T) (*System, *oracle.Meter) {
	t.Helper()
	s := sim.New(sim.DefaultConfig())
	meter := oracle.NewMeter(s, 1)
	sys, err := New(Config{Seed: 1}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), meter); err != nil {
		t.Fatal(err)
	}
	return sys, meter
}

func mustApp(t *testing.T, name string) workload.App {
	t.Helper()
	a, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("empty catalog accepted")
	}
	if _, err := New(Config{SandboxVM: "bogus.vm"}, catalog); err == nil {
		t.Fatal("unknown sandbox VM accepted")
	}
	// A λ outside [0,1] fails at construction, not at the first prediction.
	for _, lambda := range []float64{1.5, -0.1, math.NaN()} {
		if _, err := New(Config{Lambda: lambda}, catalog); err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
			t.Fatalf("lambda %v: err = %v, want out of [0,1]", lambda, err)
		}
	}
	for _, cfg := range []Config{{Lambda: 0, LambdaSet: true}, {Lambda: 1}} {
		if _, err := New(cfg, catalog); err != nil {
			t.Fatalf("lambda %v rejected: %v", cfg.Lambda, err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	sys, err := New(Config{}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	if cfg.K != 9 {
		t.Fatalf("default K = %d, want 9 (Figure 11)", cfg.K)
	}
	if cfg.Lambda != 0.75 {
		t.Fatalf("default Lambda = %v, want 0.75 (Section 5.3)", cfg.Lambda)
	}
	if cfg.InitRandomVMs != 3 {
		t.Fatalf("default InitRandomVMs = %d, want 3 (Section 4.2)", cfg.InitRandomVMs)
	}
	if cfg.SandboxVM != "m5.xlarge" {
		t.Fatalf("default sandbox = %s", cfg.SandboxVM)
	}
}

func TestTrainOfflineValidation(t *testing.T) {
	s := sim.New(sim.Config{Repeats: 2})
	meter := oracle.NewMeter(s, 1)
	sys, _ := New(Config{}, catalog)
	if err := sys.TrainOffline(nil, meter); err == nil {
		t.Fatal("empty sources accepted")
	}
	if err := sys.TrainOffline(workload.BySet(workload.SourceTraining)[:5], meter); err == nil {
		t.Fatal("k=9 with 5 sources accepted")
	}
}

func TestPredictBeforeTrain(t *testing.T) {
	sys, _ := New(Config{}, catalog)
	meter := oracle.NewMeter(sim.New(sim.Config{Repeats: 2}), 1)
	if _, err := sys.PredictOnline(mustApp(t, "Spark-lr"), meter); err == nil {
		t.Fatal("PredictOnline before TrainOffline accepted")
	}
}

func TestKnowledgeShape(t *testing.T) {
	sys, _ := trainedSystem(t)
	k := sys.Knowledge()
	if k == nil {
		t.Fatal("no knowledge after training")
	}
	if len(k.Labels) != 9 {
		t.Fatalf("%d labels, want 9", len(k.Labels))
	}
	if len(k.SourceNames) != 13 || len(k.SourceVecs) != 13 || len(k.SourceMemberships) != 13 {
		t.Fatal("source bookkeeping rows mismatched")
	}
	if len(k.Kept) == 0 || len(k.Kept) >= 10 {
		t.Fatalf("PCA kept %d of 10 features; expected a strict subset", len(k.Kept))
	}
	// Memberships are distributions.
	for i, m := range k.SourceMemberships {
		sum := 0.0
		for _, w := range m {
			if w < 0 {
				t.Fatalf("negative membership for %s", k.SourceNames[i])
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("memberships of %s sum to %v", k.SourceNames[i], sum)
		}
	}
	// Offline runs: 13 workloads x 120 VM types.
	if k.OfflineRuns != 13*120 {
		t.Fatalf("OfflineRuns = %d, want %d", k.OfflineRuns, 13*120)
	}
	// Graph carries every source as blue edges.
	st := k.Graph.Stats(1e-6)
	if st.Workloads != 13 || st.TargetEdges != 0 {
		t.Fatalf("graph stats = %+v", st)
	}
}

func TestPredictOnlineBasics(t *testing.T) {
	sys, meter := trainedSystem(t)
	meter.Reset()
	pred, err := sys.PredictOnline(mustApp(t, "Spark-lr"), meter)
	if err != nil {
		t.Fatal(err)
	}
	// Online overhead: 1 sandbox + 3 random VMs (Section 4.2).
	if pred.OnlineRuns != 4 {
		t.Fatalf("online runs = %d, want 4", pred.OnlineRuns)
	}
	if len(pred.ObservedSec) != 4 {
		t.Fatalf("observed %d VMs, want 4", len(pred.ObservedSec))
	}
	if len(pred.Ranking) != len(catalog) {
		t.Fatalf("ranking has %d VMs", len(pred.Ranking))
	}
	if pred.Ranking[0].VM != pred.Best.Name {
		t.Fatal("Best is not top of ranking")
	}
	if !pred.Converged {
		t.Fatal("Spark-lr should converge (its kernel is in the source set)")
	}
	// Predicted times exist for the whole catalog and are positive.
	for _, vm := range catalog {
		sec, err := pred.PredictTime(vm.Name)
		if err != nil {
			t.Fatal(err)
		}
		if sec <= 0 {
			t.Fatalf("predicted %v for %s", sec, vm.Name)
		}
	}
	if _, err := pred.PredictTime("bogus.vm"); err == nil {
		t.Fatal("unknown VM prediction accepted")
	}
	// Observed VMs predict exactly their measurement.
	for vm, sec := range pred.ObservedSec {
		if got, _ := pred.PredictTime(vm); got != sec {
			t.Fatalf("observed VM %s predicted %v, measured %v", vm, got, sec)
		}
	}
}

func TestPredictionDeterministic(t *testing.T) {
	sys, meter := trainedSystem(t)
	p1, err := sys.PredictOnline(mustApp(t, "Spark-kmeans"), meter)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sys.PredictOnline(mustApp(t, "Spark-kmeans"), meter)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Best.Name != p2.Best.Name || p1.Converged != p2.Converged {
		t.Fatal("prediction not deterministic")
	}
}

func TestOutliersFlaggedNonConverged(t *testing.T) {
	// Section 5.3: Spark-svd++ (high variance) and Spark-CF (cannot match
	// the offline knowledge) are the two exceptions.
	sys, meter := trainedSystem(t)
	for _, name := range []string{"Spark-CF", "Spark-svd++"} {
		pred, err := sys.PredictOnline(mustApp(t, name), meter)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Converged {
			t.Fatalf("%s converged (matchDist=%v); the paper reports it as an outlier",
				name, pred.MatchDistance)
		}
	}
	for _, name := range []string{"Spark-lr", "Spark-pca", "Spark-grep", "Spark-count"} {
		pred, err := sys.PredictOnline(mustApp(t, name), meter)
		if err != nil {
			t.Fatal(err)
		}
		if !pred.Converged {
			t.Fatalf("%s did not converge (matchDist=%v)", name, pred.MatchDistance)
		}
	}
}

func TestSelectionQualityOnTargets(t *testing.T) {
	// End-to-end: over the 12 Spark targets, Vesta's mean execution-time
	// regret must be modest, and the designed outliers must carry the top
	// regrets.
	sys, meter := trainedSystem(t)
	truth := oracle.Build(meter.Sim, workload.TargetSet(), catalog, 999)
	regrets := map[string]float64{}
	total := 0.0
	for _, tgt := range workload.TargetSet() {
		pred, err := sys.PredictOnline(tgt, meter)
		if err != nil {
			t.Fatal(err)
		}
		_, bestSec, err := truth.BestByTime(tgt.Name)
		if err != nil {
			t.Fatal(err)
		}
		pickedSec, err := truth.Time(tgt.Name, pred.Best.Name)
		if err != nil {
			t.Fatal(err)
		}
		reg := (pickedSec - bestSec) / bestSec
		regrets[tgt.Name] = reg
		total += reg
	}
	mean := total / 12
	if mean > 0.30 {
		t.Fatalf("mean regret %.1f%% too high", mean*100)
	}
	// Non-outlier targets should mostly be near-optimal.
	good := 0
	for name, reg := range regrets {
		if name == "Spark-svd++" || name == "Spark-CF" {
			continue
		}
		if reg < 0.30 {
			good++
		}
	}
	if good < 8 {
		t.Fatalf("only %d/10 regular targets within 30%% of optimal: %v", good, regrets)
	}
}

func TestCalibratedTimePredictionScale(t *testing.T) {
	// Vesta's predicted time for its chosen VM must be on the right scale
	// (the paper's MAPE metric, Equation 7): within 75% of the true best
	// time for a well-matched target (4 observations anchor the scale; the
	// paper's own per-workload MAPEs range into the tens of percent).
	sys, meter := trainedSystem(t)
	truth := oracle.Build(meter.Sim, workload.TargetSet(), catalog, 999)
	for _, name := range []string{"Spark-lr", "Spark-sort", "Spark-count"} {
		pred, err := sys.PredictOnline(mustApp(t, name), meter)
		if err != nil {
			t.Fatal(err)
		}
		_, bestSec, _ := truth.BestByTime(name)
		predSec, _ := pred.PredictTime(pred.Best.Name)
		ape := math.Abs(predSec-bestSec) / bestSec
		if ape > 0.75 {
			t.Fatalf("%s: predicted %v vs best %v (APE %.0f%%)", name, predSec, bestSec, ape*100)
		}
	}
}

func TestAbsorbTarget(t *testing.T) {
	sys, meter := trainedSystem(t)
	pred, err := sys.PredictOnline(mustApp(t, "Spark-lr"), meter)
	if err != nil {
		t.Fatal(err)
	}
	k := sys.Knowledge()
	vec := make([]float64, len(k.SourceVecs[0]))
	if err := sys.AbsorbTarget("Spark-lr", pred.LabelWeights, vec); err != nil {
		t.Fatal(err)
	}
	if src, err := k.Graph.IsSource("Spark-lr"); err != nil || src {
		t.Fatalf("absorbed target should be a red (target) edge: %v, %v", src, err)
	}
	if err := sys.AbsorbTarget("x", pred.LabelWeights, []float64{1}); err == nil {
		t.Fatal("wrong-dim pruned vector accepted")
	}
}

func TestAbsorbBeforeTrain(t *testing.T) {
	sys, _ := New(Config{}, catalog)
	if err := sys.AbsorbTarget("x", nil, nil); err == nil {
		t.Fatal("AbsorbTarget before training accepted")
	}
}

func TestOptimizeProtocol(t *testing.T) {
	sys, meter := trainedSystem(t)
	steps, pred, err := sys.Optimize(mustApp(t, "Spark-lr"), 12, meter)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 12 {
		t.Fatalf("got %d steps, want 12", len(steps))
	}
	if pred.OnlineRuns != 12 {
		t.Fatalf("OnlineRuns = %d, want 12", pred.OnlineRuns)
	}
	seen := map[string]bool{}
	for i, st := range steps {
		if st.Run != i+1 {
			t.Fatalf("step %d has Run %d", i, st.Run)
		}
		if seen[st.VM] {
			t.Fatalf("VM %s tried twice", st.VM)
		}
		seen[st.VM] = true
		if i > 0 && (st.BestSec > steps[i-1].BestSec || st.BestUSD > steps[i-1].BestUSD) {
			t.Fatal("best-so-far regressed")
		}
	}
	// The first step must be the sandbox VM.
	if steps[0].VM != sys.Config().SandboxVM {
		t.Fatalf("first step %s, want sandbox", steps[0].VM)
	}
}

func TestOptimizeFindsNearBest(t *testing.T) {
	sys, meter := trainedSystem(t)
	truth := oracle.Build(meter.Sim, workload.TargetSet(), catalog, 999)
	tgt := mustApp(t, "Spark-lr")
	steps, _, err := sys.Optimize(tgt, 15, meter)
	if err != nil {
		t.Fatal(err)
	}
	_, bestSec, _ := truth.BestByTime(tgt.Name)
	final := steps[len(steps)-1].BestSec
	if final > 1.4*bestSec {
		t.Fatalf("15-run optimization reached %v, true best %v", final, bestSec)
	}
}

func TestTrainingOverheadNumbers(t *testing.T) {
	// Figure 8: Vesta's online overhead is about 15 reference VMs (vs 100
	// for PARIS-from-scratch); the initialization alone is 4.
	sys, meter := trainedSystem(t)
	meter.Reset()
	steps, _, err := sys.Optimize(mustApp(t, "Spark-bayes"), 15, meter)
	if err != nil {
		t.Fatal(err)
	}
	if meter.Runs() != 15 || len(steps) != 15 {
		t.Fatalf("metered %d runs for a 15-run budget", meter.Runs())
	}
}

func TestSharpMembershipsConcentrate(t *testing.T) {
	sys, _ := trainedSystem(t)
	k := sys.Knowledge()
	// A source's own membership row should put the most weight on its own
	// cluster (sharp, not uniform).
	for i, vec := range k.SourceVecs {
		own := k.KM.Predict(vec)
		row := k.SourceMemberships[i]
		for c, w := range row {
			if c != own && w > row[own]+1e-9 {
				t.Fatalf("%s: membership of foreign cluster %d (%v) above own %d (%v)",
					k.SourceNames[i], c, w, own, row[own])
			}
		}
	}
}

func BenchmarkPredictOnline(b *testing.B) {
	s := sim.New(sim.DefaultConfig())
	meter := oracle.NewMeter(s, 1)
	sys, _ := New(Config{Seed: 1}, catalog)
	if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), meter); err != nil {
		b.Fatal(err)
	}
	a, _ := workload.ByName("Spark-lr")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.PredictOnline(a, meter); err != nil {
			b.Fatal(err)
		}
	}
}
