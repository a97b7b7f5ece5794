// Whatif: catalog exploration. Renders Figure 1 style heat maps for one
// application per framework and shows how the best VM type shifts as the
// input dataset grows through the HiBench scales (large -> huge -> gigantic).
//
// Run with:
//
//	go run ./examples/whatif
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"vesta/internal/cloud"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

func main() {
	catalog := cloud.Catalog120()
	simulator := sim.New(sim.Config{Repeats: 5})

	// Part 1: Figure 1 style budget heat maps — observe that the cheap
	// region sits at a similar CPU-to-memory ratio in all three frameworks.
	for _, name := range []string{"Hadoop-terasort", "Hive-aggregation", "Spark-page-rank"} {
		app, err := workload.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		heatmap(simulator, catalog, app)
		fmt.Println()
	}

	// Part 2: input-size scaling. The best VM type is not static — it moves
	// up the size ladder as the dataset grows.
	fmt.Println("best VM type by HiBench input scale (Spark-sort):")
	app, err := workload.ByName("Spark-sort")
	if err != nil {
		log.Fatal(err)
	}
	for _, scale := range []string{"large", "huge", "gigantic"} {
		gb, err := workload.InputSizeGB(scale)
		if err != nil {
			log.Fatal(err)
		}
		sized := app.WithInput(gb)
		truth := oracle.Build(simulator, []workload.App{sized}, catalog, 5)
		byTime, sec, err := truth.BestByTime(sized.Name)
		if err != nil {
			log.Fatal(err)
		}
		byCost, usd, err := truth.BestByCost(sized.Name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s (%5.1f GB): fastest %-14s %7.1f s | cheapest %-14s $%.4f\n",
			scale, gb, byTime.Name, sec, byCost.Name, usd)
	}
}

// heatmap renders the min-budget grid over (vCPUs x GiB-per-vCPU).
func heatmap(s *sim.Simulator, catalog []cloud.VMType, app workload.App) {
	value := map[string]float64{}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, vm := range catalog {
		p := s.Measure(app, vm, 3, sim.Want{})
		value[vm.Name] = p.CostUSD
		if p.CostUSD < lo {
			lo = p.CostUSD
		}
		if p.CostUSD > hi {
			hi = p.CostUSD
		}
	}
	cpuSet := map[int]bool{}
	ratioSet := map[float64]bool{}
	for _, vm := range catalog {
		cpuSet[vm.VCPUs] = true
		ratioSet[math.Round(vm.MemPerVCPU())] = true
	}
	var cpus []int
	for c := range cpuSet {
		cpus = append(cpus, c)
	}
	sort.Ints(cpus)
	var ratios []float64
	for r := range ratioSet {
		ratios = append(ratios, r)
	}
	sort.Float64s(ratios)

	fmt.Printf("budget heat map: %s (0 = cheapest, 9 = most expensive)\n", app.Name)
	fmt.Printf("%9s", "GiB/vCPU")
	for _, c := range cpus {
		fmt.Printf("%4d", c)
	}
	fmt.Println(" <- vCPUs")
	for i := len(ratios) - 1; i >= 0; i-- {
		fmt.Printf("%9.0f", ratios[i])
		for _, c := range cpus {
			best := math.Inf(1)
			for _, vm := range catalog {
				if vm.VCPUs == c && math.Round(vm.MemPerVCPU()) == ratios[i] {
					if v := value[vm.Name]; v < best {
						best = v
					}
				}
			}
			if math.IsInf(best, 1) {
				fmt.Printf("%4s", ".")
				continue
			}
			fmt.Printf("%4d", int(9*(math.Log(best)-math.Log(lo))/(math.Log(hi)-math.Log(lo))))
		}
		fmt.Println()
	}
}
