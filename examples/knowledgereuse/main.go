// Knowledgereuse: the operational lifecycle of Vesta's knowledge base —
// train once, persist, reload in a later session, predict, and absorb the
// newly learned target back into the graph (the red edges of Figure 4) so
// the knowledge base grows incrementally.
//
// Run with:
//
//	go run ./examples/knowledgereuse
package main

import (
	"bytes"
	"fmt"
	"log"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/metrics"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

func main() {
	catalog := cloud.Catalog120()
	simulator := sim.New(sim.DefaultConfig())

	// Session 1: the expensive offline phase, then persist the knowledge.
	fmt.Println("session 1: offline training on Hadoop+Hive sources...")
	trainer, err := core.New(core.Config{Seed: 5}, catalog)
	if err != nil {
		log.Fatal(err)
	}
	if err := trainer.TrainOffline(workload.BySet(workload.SourceTraining),
		oracle.NewMeter(simulator, 5)); err != nil {
		log.Fatal(err)
	}
	var saved bytes.Buffer
	if err := trainer.SaveKnowledge(&saved); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 1: knowledge serialized (%d bytes)\n\n", saved.Len())

	// Session 2 (later, maybe another machine): reload and predict without
	// re-running a single offline profile.
	fmt.Println("session 2: reload knowledge, predict for new Spark workloads")
	predictor, err := core.New(core.Config{Seed: 5}, catalog)
	if err != nil {
		log.Fatal(err)
	}
	if err := predictor.LoadKnowledge(bytes.NewReader(saved.Bytes())); err != nil {
		log.Fatal(err)
	}

	before := predictor.Knowledge().Graph.Stats(0.05)
	fmt.Printf("session 2: graph has %d workloads (%d blue edges, %d red)\n",
		before.Workloads, before.SourceEdges, before.TargetEdges)

	for _, name := range []string{"Spark-lr", "Spark-kmeans", "Spark-sort"} {
		target, err := workload.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		meter := oracle.NewMeter(simulator, 50)
		pred, err := predictor.PredictOnline(target, meter)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s -> %-14s (%d runs, converged=%v)\n",
			name, pred.Best.Name, pred.OnlineRuns, pred.Converged)

		// Absorb the learned target: its red edges join the graph and the
		// K-Means model retrains cheaply (Algorithm 1 line 13).
		sandbox := simulator.Measure(target, mustFind(catalog, predictor.Config().SandboxVM), 50, sim.Want{Features: metrics.AllFeatures})
		vec := project(sandbox.Corr.Slice(), predictor.Knowledge().Kept)
		if err := predictor.AbsorbTarget(name, pred.LabelWeights, vec); err != nil {
			log.Fatal(err)
		}
	}

	after := predictor.Knowledge().Graph.Stats(0.05)
	fmt.Printf("\nafter absorption: %d workloads (%d blue edges, %d red edges)\n",
		after.Workloads, after.SourceEdges, after.TargetEdges)
	fmt.Println("the knowledge base now covers the new framework's workloads too")
}

func mustFind(catalog []cloud.VMType, name string) cloud.VMType {
	vm, err := cloud.Find(catalog, name)
	if err != nil {
		log.Fatal(err)
	}
	return vm
}

// project selects kept feature indices (mirrors the core's internal helper).
func project(v []float64, kept []int) []float64 {
	out := make([]float64, len(kept))
	for i, j := range kept {
		out[i] = v[j]
	}
	return out
}
