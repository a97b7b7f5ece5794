// Ablation studies for the design choices called out in DESIGN.md §5.
//
// Every sweep here is embarrassingly parallel: each configuration trains its
// own Vesta system with independent seeds and meters, so the rows fan out on
// the environment's worker pool and are collected in index order — the
// rendered table is byte-identical at every worker count.
package bench

import (
	"fmt"

	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/parallel"
	"vesta/internal/stats"
	"vesta/internal/workload"
)

// vestaMeanMAPE trains a Vesta variant and returns its mean Equation 7 MAPE
// and mean selection regret over the 12 Spark targets, plus the number of
// PCA-kept features. The per-target online predictions (one fold-in each)
// run as a batch on the worker pool.
func vestaMeanMAPE(env *Env, cfg core.Config) (mape, regret float64, kept int) {
	truth := env.Truth("targets", workload.TargetSet())
	sys := trainVesta(env, cfg)
	targets := workload.TargetSet()
	preds, err := sys.PredictBatch(targets, func(int) oracle.Service { return env.Meter(0xE0) })
	if err != nil {
		panic(err)
	}
	var mapes, regrets []float64
	for i, app := range targets {
		mapes = append(mapes, selectionMAPE(truth, app.Name, preds[i].Best.Name, preds[i].PredictedSec[preds[i].Best.Name]))
		regrets = append(regrets, regretPct(truth, app.Name, preds[i].Best.Name))
	}
	return stats.Mean(mapes), stats.Mean(regrets), len(sys.Knowledge().Kept)
}

// sweepRow is one configuration's outcome in an ablation sweep.
type sweepRow struct {
	mape, regret float64
	kept         int
}

// sweepConfigs evaluates one Vesta configuration per index on the worker
// pool and returns the outcomes in index order.
func sweepConfigs(env *Env, n int, cfgAt func(i int) core.Config) []sweepRow {
	// Warm the shared ground-truth cache before fanning out so concurrent
	// tasks do not serialize behind its build.
	env.Truth("targets", workload.TargetSet())
	return parallel.Map(env.Workers, n, func(i int) sweepRow {
		mape, reg, kept := vestaMeanMAPE(env, cfgAt(i))
		return sweepRow{mape: mape, regret: reg, kept: kept}
	})
}

// AblationLambda sweeps the CMF tradeoff parameter around the paper's 0.75.
// The lambda = 0 row (pure source knowledge, no target reconstruction) is
// only configurable through the LambdaSet sentinel — a plain zero would be
// silently replaced by the 0.75 default.
func AblationLambda(env *Env) *Table {
	t := &Table{
		ID:      "ablation-lambda",
		Title:   "CMF tradeoff lambda vs target-set error",
		Columns: []string{"lambda", "mean MAPE(%)", "mean regret(%)"},
	}
	lambdas := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9}
	rows := sweepConfigs(env, len(lambdas), func(i int) core.Config {
		return core.Config{Lambda: lambdas[i], LambdaSet: true}
	})
	for i, lambda := range lambdas {
		t.AddRow(fmt.Sprintf("%.2f", lambda), rows[i].mape, rows[i].regret)
	}
	t.Notes = append(t.Notes,
		"paper: lambda = 0.75 chosen by best practice",
		"lambda = 0.00 ablates the target reconstruction entirely (pure-source transfer)")
	return t
}

// AblationInitRuns sweeps the number of randomly picked initialization VMs.
func AblationInitRuns(env *Env) *Table {
	t := &Table{
		ID:      "ablation-initruns",
		Title:   "random initialization runs vs target-set error (paper uses 3)",
		Columns: []string{"init runs", "total online runs", "mean MAPE(%)", "mean regret(%)"},
	}
	counts := []int{1, 2, 3, 4, 6}
	rows := sweepConfigs(env, len(counts), func(i int) core.Config {
		return core.Config{InitRandomVMs: counts[i]}
	})
	for i, n := range counts {
		t.AddRow(n, n+1, rows[i].mape, rows[i].regret)
	}
	return t
}

// AblationPCA compares the default importance pruning against keeping every
// correlation feature.
func AblationPCA(env *Env) *Table {
	t := &Table{
		ID:      "ablation-pca",
		Title:   "PCA importance pruning on/off",
		Columns: []string{"variant", "kept features", "mean MAPE(%)", "mean regret(%)"},
	}
	cfgs := []core.Config{{}, {PCAThreshold: 1e-9}}
	rows := sweepConfigs(env, len(cfgs), func(i int) core.Config { return cfgs[i] })
	t.AddRow("pruned (threshold 0.8)", rows[0].kept, rows[0].mape, rows[0].regret)
	t.AddRow("all 10 features", rows[1].kept, rows[1].mape, rows[1].regret)
	t.Notes = append(t.Notes, "paper: pruning removes about 49% of useless data without hurting accuracy")
	return t
}

// AblationFeatures compares the correlation-similarity representation with
// raw mean metric levels — the representation whose naive reuse Figure 2
// shows to be fragile across frameworks.
func AblationFeatures(env *Env) *Table {
	t := &Table{
		ID:      "ablation-features",
		Title:   "workload representation: Table 1 correlations vs raw metric levels",
		Columns: []string{"representation", "mean MAPE(%)", "mean regret(%)"},
	}
	cfgs := []core.Config{{}, {UseRawFeatures: true, MatchThreshold: 1e9}}
	rows := sweepConfigs(env, len(cfgs), func(i int) core.Config { return cfgs[i] })
	t.AddRow("correlation similarities", rows[0].mape, rows[0].regret)
	t.AddRow("raw metric levels", rows[1].mape, rows[1].regret)
	t.Notes = append(t.Notes,
		"in this substrate both representations retain ranking signal; the correlation representation's decisive advantages are absolute-time transfer (Figures 2/6: raw-level models mispredict the new framework's time scale) and the knowledge-match outlier guard, which has no raw-level equivalent")
	return t
}

// AblationK sweeps k through the full pipeline (complementing Figure 11's
// cross-validation view).
func AblationK(env *Env) *Table {
	t := &Table{
		ID:      "ablation-k",
		Title:   "K-Means k vs target-set error (full pipeline)",
		Columns: []string{"k", "mean MAPE(%)", "mean regret(%)"},
	}
	ks := []int{3, 5, 7, 9, 11, 13}
	rows := sweepConfigs(env, len(ks), func(i int) core.Config {
		return core.Config{K: ks[i]}
	})
	for i, k := range ks {
		t.AddRow(k, rows[i].mape, rows[i].regret)
	}
	return t
}
