package bench

import (
	"fmt"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/stats"
	"vesta/internal/workload"
)

// providerArm describes one non-EC2 provider evaluated by
// ExtProviderTransfer: its catalog and the general-purpose type the native
// arm uses as its sandbox VM.
type providerArm struct {
	name    string
	sandbox string
	catalog []cloud.VMType
}

// ExtProviderTransfer measures transfer across *providers*: knowledge
// trained entirely on the EC2-like catalog ranks the Azure- and GCP-like
// catalogs (absorbed at runtime as a versioned catalog update, DESIGN.md
// §14), against a native arm that trains from scratch on each provider's own
// catalog. The transfer arm pays zero additional offline training — its
// provider rankings come from adaptRanking's resource-vector interpolation —
// so its regret against the provider's exhaustive truth is the price of
// skipping a full re-profiling campaign on the new cloud.
func ExtProviderTransfer(env *Env) *Table {
	vesta := trainVesta(env, core.Config{})
	snap, err := vesta.Snapshot()
	if err != nil {
		panic(err)
	}
	targets := []string{"Spark-lr", "Spark-kmeans", "Spark-sort"}
	providers := []providerArm{
		{name: cloud.ProviderAzure, sandbox: "dv5.xlarge", catalog: cloud.AzureCatalog()},
		{name: cloud.ProviderGCP, sandbox: "n2.xlarge", catalog: cloud.GCPCatalog()},
	}

	t := &Table{
		ID:    "ext-provider-transfer",
		Title: "cross-provider transfer: EC2-trained knowledge vs native per-provider training",
		Columns: []string{"provider", "target", "transfer pick", "native pick", "truth best",
			"transfer regret(%)", "native regret(%)"},
	}
	var apps []workload.App
	for _, name := range targets {
		app, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		apps = append(apps, app)
	}
	for _, p := range providers {
		// Transfer arm: absorb the provider's types into the EC2-trained
		// snapshot as one catalog update — the same versioned-absorb path a
		// live `vesta serve` node takes through POST /catalog.
		multi, err := snap.AbsorbCatalog(cloud.Update{
			Note: "add " + p.name + " catalog",
			Add:  p.catalog,
		})
		if err != nil {
			panic(err)
		}
		inProvider := make(map[string]bool, len(p.catalog))
		for _, v := range p.catalog {
			inProvider[v.Name] = true
		}
		// Native arm: full offline training on the provider's own catalog —
		// the upper bound the transfer arm tries to approach for free.
		native, err := core.New(env.config(core.Config{Seed: env.Seed + 11, SandboxVM: p.sandbox}), p.catalog)
		if err != nil {
			panic(err)
		}
		if err := native.TrainOffline(workload.BySet(workload.SourceTraining), env.Meter(0xE0)); err != nil {
			panic(err)
		}
		truth := oracle.Build(env.Sim, apps, p.catalog, env.Seed+0x7177)

		var transferRegrets, nativeRegrets []float64
		for _, app := range apps {
			pred, err := multi.PredictFast(app, env.Meter(0xE1))
			if err != nil {
				panic(err)
			}
			transferPick := ""
			for _, r := range pred.Ranking {
				if inProvider[r.VM] {
					transferPick = r.VM
					break
				}
			}
			if transferPick == "" {
				panic(fmt.Sprintf("bench: no %s VM in the multi-cloud ranking for %s", p.name, app.Name))
			}
			nativePred, err := native.PredictOnline(app, env.Meter(0xE2))
			if err != nil {
				panic(err)
			}
			bestVM, bestSec, err := truth.BestByTime(app.Name)
			if err != nil {
				panic(err)
			}
			tSec, err := truth.Time(app.Name, transferPick)
			if err != nil {
				panic(err)
			}
			nSec, err := truth.Time(app.Name, nativePred.Best.Name)
			if err != nil {
				panic(err)
			}
			tReg := (tSec - bestSec) / bestSec * 100
			nReg := (nSec - bestSec) / bestSec * 100
			transferRegrets = append(transferRegrets, tReg)
			nativeRegrets = append(nativeRegrets, nReg)
			t.AddRow(p.name, app.Name, transferPick, nativePred.Best.Name, bestVM.Name, tReg, nReg)
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: mean transfer regret %.0f%% vs native %.0f%% over %d targets (catalog version %d, %d types added); transfer pays 0 extra offline runs",
			p.name, stats.Mean(transferRegrets), stats.Mean(nativeRegrets), len(apps),
			multi.CatalogVersion(), len(p.catalog)))
	}
	t.Notes = append(t.Notes,
		"transfer = EC2-trained knowledge + runtime catalog absorb (rankings interpolated over resource vectors); native = full offline training on the provider catalog")
	return t
}
