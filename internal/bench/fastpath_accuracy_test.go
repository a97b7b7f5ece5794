package bench

import (
	"math"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/stats"
	"vesta/internal/workload"
)

// fig7Deviation reproduces the Figure 7 metric for one prediction mode: the
// mean absolute deviation of (predicted/observed)x100% from 100 across the
// 10 typical VM types for Spark-lr.
func fig7Deviation(t *testing.T, env *Env, predicted map[string]float64, app workload.App) float64 {
	t.Helper()
	truth := env.Truth("eval17", evalApps())
	var dev []float64
	for _, vm := range cloud.TypicalTen(env.Catalog) {
		obs, err := truth.Time(app.Name, vm.Name)
		if err != nil {
			t.Fatal(err)
		}
		dev = append(dev, math.Abs(predicted[vm.Name]/obs*100-100))
	}
	return stats.Mean(dev)
}

// TestFastPathAccuracyVsFigure7 holds the serving fast path (the target
// folded in against the plan's converged label factors) to the paper's
// Figure 7 accuracy protocol: predicted vs observed execution time of
// Spark-lr on the 10 typical VM types. It must stay within 2 percentage
// points of the cold solve's mean deviation and agree with the cold path on
// the best VM.
func TestFastPathAccuracyVsFigure7(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a full system")
	}
	env := NewEnv(1)
	app, err := workload.ByName("Spark-lr")
	if err != nil {
		t.Fatal(err)
	}
	vesta := trainVesta(env, core.Config{})
	snap, err := vesta.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cold, err := snap.Predict(app, env.Meter(0x70))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := snap.PredictFast(app, env.Meter(0x70))
	if err != nil {
		t.Fatal(err)
	}

	coldDev := fig7Deviation(t, env, cold.PredictedSec, app)
	fastDev := fig7Deviation(t, env, fast.PredictedSec, app)
	t.Logf("Figure 7 mean |deviation|: cold %.1f%%, fast path %.1f%%", coldDev, fastDev)

	if fastDev > coldDev+2 {
		t.Errorf("fast path mean deviation %.1f%% exceeds cold %.1f%% by more than 2 points", fastDev, coldDev)
	}
	if fast.Best.Name != cold.Best.Name {
		t.Errorf("fast path best VM %s, cold picked %s", fast.Best.Name, cold.Best.Name)
	}
}
