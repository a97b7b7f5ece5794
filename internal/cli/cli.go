// Package cli implements the vesta command line front-end. It lives in an
// internal package (rather than in cmd/vesta) so every subcommand is unit
// testable with injected output streams.
//
// Subcommands:
//
//	vesta catalog  [-category C] [-family F]   list the VM type catalog
//	vesta workloads [-set S] [-framework F]    list the Table 3 applications
//	vesta simulate -app A -vm V [-nodes N]     profile one app on one VM type
//	vesta profile  -out knowledge.json         run the offline phase and save knowledge
//	vesta predict  -knowledge K -app A         predict the best VM for a target
//	vesta serve    -knowledge K -addr HOST:P   serve predictions over HTTP/JSON
//	vesta route    -backends URL1,URL2,...     front a replicated serving fleet
//	vesta rollout  -leader URL -candidate F    health-gated staged fleet upgrade
//
// serve accepts -state-dir DIR to make absorbed serving state durable: every
// POST /absorb is write-ahead logged and fsynced before it is published,
// startup recovers base + checkpoint + WAL (truncating a torn tail), and
// SIGINT/SIGTERM drain in-flight requests then write a final checkpoint
// (DESIGN.md §11). With -replicate a serve node is a replication leader
// (followers sync WAL frames from GET /replicate/frames); with -follow URL it
// is a read-only follower replaying that leader (push-style long-poll
// streaming by default; -long-poll 0 falls back to interval polling). route
// consistent-hashes predict traffic across follower backends, probes their
// /healthz, and fails over with bounded retries + jittered backoff
// (DESIGN.md §13). rollout promotes an encoded candidate snapshot across the
// fleet in health-gated stages with automatic rollback and a journaled,
// crash-resumable decision log (DESIGN.md §16); the fleet must run with
// -rollout to expose the control plane.
//
// profile and predict accept -fault-rate R and -retries N to rehearse the
// pipeline under deterministic infrastructure fault injection (spot
// preemption, launch failures, stragglers, OOM kills, sampler dropout) with
// the resilient retry layer; the default rate 0 is byte-identical to the
// fault-free pipeline. They also accept -trace out.jsonl (deterministic
// observability records — spans, counters, per-epoch gauges — byte-identical
// at every -workers value, DESIGN.md §9) and -v (verbose wall-clock progress
// on stderr, outside the determinism contract).
//
//	vesta heatmap  -app A                      render a Figure 1 style budget heat map
//	vesta collect  -store DIR -app A [...]     profile and persist measurements
//	vesta history  -store DIR [-app A]         query persisted measurements
//
// All measurements run against the deterministic cluster simulator (see
// DESIGN.md); real EC2 is substituted by the synthetic catalog and the BSP
// execution model.
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"vesta/internal/chaos"
	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/metrics"
	"vesta/internal/obs"
	"vesta/internal/oracle"
	"vesta/internal/portfolio"
	"vesta/internal/sim"
	"vesta/internal/store"
	"vesta/internal/traceview"
	"vesta/internal/workload"
)

// Run dispatches a vesta invocation (args excludes the program name) and
// returns the process exit code. All output goes to the provided writers.
func Run(args []string, stdout, stderr io.Writer) int {
	outW = stdout
	errW = stderr
	f := newFactory(stdout, stderr)
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "catalog":
		err = cmdCatalog(args[1:])
	case "workloads":
		err = cmdWorkloads(args[1:])
	case "simulate":
		err = cmdSimulate(args[1:])
	case "profile":
		err = cmdProfile(f, args[1:])
	case "predict":
		err = cmdPredict(f, args[1:])
	case "serve":
		err = cmdServe(f, args[1:])
	case "route":
		err = cmdRoute(f, args[1:])
	case "rollout":
		err = cmdRollout(f, args[1:])
	case "loadgen":
		err = cmdLoadgen(f, args[1:])
	case "heatmap":
		err = cmdHeatmap(args[1:])
	case "inspect":
		err = cmdInspect(args[1:])
	case "collect":
		err = cmdCollect(args[1:])
	case "history":
		err = cmdHistory(args[1:])
	case "clustersize":
		err = cmdClusterSize(args[1:])
	case "knowledge":
		err = cmdKnowledge(args[1:])
	case "plan":
		err = cmdPlan(args[1:])
	case "compare":
		err = cmdCompare(args[1:])
	case "help", "-h", "--help":
		usage()
		return 0
	default:
		fmt.Fprintf(errW, "vesta: unknown subcommand %q\n\n", args[0])
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(errW, "vesta:", err)
		return 1
	}
	return 0
}

// outW and errW are the invocation's output streams, set by Run.
var (
	outW io.Writer = os.Stdout
	errW io.Writer = os.Stderr
)

func usage() {
	fmt.Fprint(errW, `usage: vesta <subcommand> [flags]

subcommands:
  catalog     list the 120 VM types of the evaluation catalog
  workloads   list the 30 applications of Table 3
  simulate    profile one application on one VM type
  profile     run the offline phase on the source workloads, save knowledge
  predict     predict the best VM type for a target workload
  serve       serve predictions concurrently over HTTP/JSON
  route       front a replicated serving fleet (consistent hashing + failover)
  rollout     health-gated staged fleet upgrade with automatic rollback
  loadgen     deterministic open-loop load generation, admission tuning, capacity plans
  heatmap     render a budget heat map for an application (Figure 1 style)
  inspect     render a profiling run's metric trace (sparklines + phases)
  collect     profile applications and persist the measurements to a store
  history     query a measurement store
  clustersize recommend a cluster size for a workload on a VM type
  knowledge   inspect a knowledge file (labels, members, top VMs)
  plan        portfolio-plan VM types for several applications at once
  compare     compare VM types side by side for one application

run 'vesta <subcommand> -h' for flags.
`)
}

func cmdCatalog(args []string) error {
	fs := flag.NewFlagSet("catalog", flag.ContinueOnError)
	fs.SetOutput(errW)
	category := fs.String("category", "", "filter by category (e.g. 'Compute Optimized')")
	family := fs.String("family", "", "filter by family (e.g. C5)")
	provider := fs.String("provider", "", "provider catalog: ec2 (default), azure, gcp, or all (the multi-cloud union)")
	addr := fs.String("addr", "", "query a running 'vesta serve' at this base URL instead of the built-in tables (GET /catalog)")
	apply := fs.String("apply", "", "apply the catalog-update JSON in this file to the server at -addr (POST /catalog): live retire/reprice/spot/add")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *apply != "" {
		if *addr == "" {
			return fmt.Errorf("catalog: -apply needs -addr (the server to update)")
		}
		return applyCatalogUpdate(*addr, *apply)
	}
	var cat []cloud.VMType
	if *addr != "" {
		live, version, err := fetchCatalog(*addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(outW, "catalog version %d (%d types) from %s\n", version, len(live), *addr)
		cat = live
	} else {
		switch *provider {
		case "", cloud.ProviderEC2:
			cat = cloud.Catalog120()
		case cloud.ProviderAzure:
			cat = cloud.AzureCatalog()
		case cloud.ProviderGCP:
			cat = cloud.GCPCatalog()
		case "all":
			cat = cloud.MultiCloud()
		default:
			return fmt.Errorf("catalog: unknown provider %q (ec2, azure, gcp, all)", *provider)
		}
	}
	if *category != "" {
		cat = cloud.FilterCategory(cat, cloud.Category(*category))
	}
	if *family != "" {
		cat = cloud.FilterFamily(cat, *family)
	}
	if len(cat) == 0 {
		return fmt.Errorf("no VM types match the filters")
	}
	w := tabwriter.NewWriter(outW, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tPROVIDER\tCATEGORY\tvCPU\tMEM(GiB)\tDISK(MB/s)\tNET(Gbps)\tUSD/h\tSPOT/h")
	for _, v := range cat {
		p := v.Provider
		if p == "" {
			p = cloud.ProviderEC2
		}
		spot := "-"
		if v.HasSpot() {
			spot = fmt.Sprintf("%.4f", v.SpotPriceHour)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%.1f\t%.0f\t%.1f\t%.4f\t%s\n",
			v.Name, p, v.Category, v.VCPUs, v.MemoryGiB, v.DiskMBps, v.NetworkGbps, v.PriceHour, spot)
	}
	return w.Flush()
}

func cmdWorkloads(args []string) error {
	fs := flag.NewFlagSet("workloads", flag.ContinueOnError)
	fs.SetOutput(errW)
	set := fs.String("set", "", "filter by set (source-training|source-testing|target)")
	fw := fs.String("framework", "", "filter by framework (Hadoop|Hive|Spark)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := tabwriter.NewWriter(outW, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NO\tNAME\tFRAMEWORK\tKERNEL\tCLASS\tSUITE\tSET\tINPUT(GB)")
	for _, a := range workload.All() {
		if *set != "" && string(a.Set) != *set {
			continue
		}
		if *fw != "" && string(a.Framework) != *fw {
			continue
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%.1f\n",
			a.No, a.Name, a.Framework, a.Kernel, a.Class, a.Suite, a.Set, a.InputGB)
	}
	return w.Flush()
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	fs.SetOutput(errW)
	appName := fs.String("app", "", "application name from Table 3 (required)")
	vmName := fs.String("vm", "m5.xlarge", "VM type name")
	nodes := fs.Int("nodes", 4, "cluster size")
	repeats := fs.Int("repeats", 10, "repeated runs (P90 protocol)")
	inputGB := fs.Float64("input", 0, "override input size in GB")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appName == "" {
		return fmt.Errorf("simulate: -app is required")
	}
	app, err := workload.ByName(*appName)
	if err != nil {
		return err
	}
	if *inputGB > 0 {
		app = app.WithInput(*inputGB)
	}
	vm, err := cloud.Find(cloud.Catalog120(), *vmName)
	if err != nil {
		return err
	}
	s := sim.New(sim.Config{Nodes: *nodes, Repeats: *repeats})
	p := s.ProfileRun(app, vm, *seed)

	fmt.Fprintf(outW, "%s on %d x %s\n", app, *nodes, vm)
	fmt.Fprintf(outW, "  P90 execution time : %.1f s\n", p.P90Seconds)
	fmt.Fprintf(outW, "  mean execution time: %.1f s over %d runs\n", p.MeanSec, len(p.Runs))
	fmt.Fprintf(outW, "  budget (P90)       : $%.4f\n", p.CostUSD)
	fmt.Fprintf(outW, "  metric samples     : %d every %.1f s\n", p.Trace.Len(), p.Trace.SampleSec)
	fmt.Fprintln(outW, "  correlation similarities (Table 1):")
	for i := 0; i < metrics.NumCorrelations; i++ {
		fmt.Fprintf(outW, "    %-28s %+.2f\n", metrics.CorrelationNames[i], p.Corr[i])
	}
	return nil
}

// newService builds the measurement service for the profile and predict
// subcommands. A zero fault rate returns the plain meter — behaviour and
// output stay byte-identical to the CLI before fault injection existed. A
// positive rate runs the simulator under a chaos plan seeded from the run
// seed and wraps the meter in the resilient retry layer. A non-nil tracer is
// threaded into the simulator (fault events) and the meter (profile spans).
func newService(seed uint64, faultRate float64, retries int, tracer *obs.Tracer) (oracle.Service, *oracle.Resilient) {
	cfg := sim.DefaultConfig()
	cfg.Tracer = tracer
	if faultRate <= 0 {
		return oracle.NewMeter(sim.New(cfg), seed).SetTracer(tracer), nil
	}
	cfg.Chaos = chaos.NewPlan(seed, chaos.Uniform(faultRate))
	policy := oracle.DefaultRetryPolicy()
	policy.MaxRetries = retries
	r := oracle.NewResilient(oracle.NewMeter(sim.New(cfg), seed).SetTracer(tracer), policy)
	return r, r
}

func cmdProfile(f *Factory, args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	fs.SetOutput(f.Err)
	out := fs.String("out", "knowledge.json", "output knowledge file")
	k := fs.Int("k", 9, "number of K-Means labels")
	seed := fs.Uint64("seed", 1, "training seed")
	testing := fs.Bool("include-testing", false, "also train on the 5 source-testing workloads")
	workers := fs.Int("workers", 0, "worker pool size for profiling and clustering (0 = one per CPU); results are identical at every value")
	faultRate := fs.Float64("fault-rate", 0, "inject every infrastructure fault class at this per-run rate (0 = off)")
	retries := fs.Int("retries", 3, "profile retries under fault injection (used with -fault-rate)")
	tracePath := fs.String("trace", "", "write deterministic trace records (spans, counters, gauges) to this JSONL file")
	verbose := fs.Bool("v", false, "stream verbose progress (wall timings, worker occupancy) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sources := workload.BySet(workload.SourceTraining)
	if *testing {
		sources = workload.SourceSet()
	}
	tracer := f.Tracer(*tracePath, *verbose)
	sys, err := core.New(core.Config{K: *k, Seed: *seed, Workers: *workers, Tracer: tracer}, cloud.Catalog120())
	if err != nil {
		return err
	}
	meter, resil := f.Service(*seed, *faultRate, *retries, tracer)
	fmt.Fprintf(f.Out, "profiling %d source workloads on %d VM types...\n", len(sources), 120)
	if err := sys.TrainOffline(sources, meter); err != nil {
		return err
	}
	w, err := f.Create(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := sys.SaveKnowledge(w); err != nil {
		return err
	}
	kn := sys.Knowledge()
	fmt.Fprintf(f.Out, "offline phase complete: %d reference VMs, %d labels, %d/%d correlation features kept\n",
		kn.OfflineRuns, len(kn.Labels), len(kn.Kept), metrics.NumCorrelations)
	if resil != nil {
		f.printResilience(resil)
		if kn.SkippedCells > 0 || len(kn.DroppedSources) > 0 || kn.InvalidVectors > 0 {
			fmt.Fprintf(f.Out, "degraded: %d cells skipped, %d invalid vectors, dropped sources %v\n",
				kn.SkippedCells, kn.InvalidVectors, kn.DroppedSources)
		}
	}
	fmt.Fprintf(f.Out, "knowledge written to %s\n", *out)
	return f.writeTrace(tracer, *tracePath)
}

func cmdPredict(f *Factory, args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	fs.SetOutput(f.Err)
	knowledgeFile := fs.String("knowledge", "knowledge.json", "knowledge file from 'vesta profile'")
	appName := fs.String("app", "", "target application from Table 3 (required)")
	topN := fs.Int("top", 10, "how many ranked VM types to print")
	seed := fs.Uint64("seed", 1, "online seed")
	workers := fs.Int("workers", 0, "worker pool size for the online phase (0 = one per CPU); results are identical at every value")
	faultRate := fs.Float64("fault-rate", 0, "inject every infrastructure fault class at this per-run rate (0 = off)")
	retries := fs.Int("retries", 3, "profile retries under fault injection (used with -fault-rate)")
	tracePath := fs.String("trace", "", "write deterministic trace records (spans, counters, gauges) to this JSONL file")
	verbose := fs.Bool("v", false, "stream verbose progress (wall timings, worker occupancy) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appName == "" {
		return fmt.Errorf("predict: -app is required")
	}
	app, err := workload.ByName(*appName)
	if err != nil {
		return err
	}
	tracer := f.Tracer(*tracePath, *verbose)
	sys, err := core.New(core.Config{Seed: *seed, Workers: *workers, Tracer: tracer}, cloud.Catalog120())
	if err != nil {
		return err
	}
	kf, err := f.Open(*knowledgeFile)
	if err != nil {
		return err
	}
	defer kf.Close()
	if err := sys.LoadKnowledge(kf); err != nil {
		return err
	}
	meter, resil := f.Service(*seed, *faultRate, *retries, tracer)
	pred, err := sys.PredictOnline(app, meter)
	if err != nil {
		return err
	}
	fmt.Fprintf(f.Out, "target: %s\n", app)
	fmt.Fprintf(f.Out, "online overhead: %d reference VMs (sandbox + random initialization)\n", pred.OnlineRuns)
	if pred.InitFailures > 0 {
		fmt.Fprintf(f.Out, "degraded: %d reference VM campaigns abandoned and substituted\n", pred.InitFailures)
	}
	if !pred.Converged {
		fmt.Fprintf(f.Out, "WARNING: transfer did not converge (match distance %.2f); falling back to sandbox-only knowledge\n",
			pred.MatchDistance)
	}
	fmt.Fprintf(f.Out, "predicted best VM type: %s\n\n", pred.Best)
	fmt.Fprintf(f.Out, "top %d ranking:\n", *topN)
	w := tabwriter.NewWriter(f.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "RANK\tVM TYPE\tSCORE\tPREDICTED TIME(s)\tPREDICTED BUDGET($)")
	nodes := meter.SimConfig().Nodes
	byName := cloud.ByName(cloud.Catalog120())
	for i, r := range pred.Ranking {
		if i >= *topN {
			break
		}
		sec := pred.PredictedSec[r.VM]
		usd := sec / 3600 * byName[r.VM].PriceHour * float64(nodes)
		fmt.Fprintf(w, "%d\t%s\t%.3f\t%.1f\t%.4f\n", i+1, r.VM, r.Score, sec, usd)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	f.printResilience(resil)
	return f.writeTrace(tracer, *tracePath)
}

func cmdHeatmap(args []string) error {
	fs := flag.NewFlagSet("heatmap", flag.ContinueOnError)
	fs.SetOutput(errW)
	appName := fs.String("app", "", "application from Table 3 (required)")
	nodes := fs.Int("nodes", 4, "cluster size")
	seed := fs.Uint64("seed", 1, "simulation seed")
	byTime := fs.Bool("time", false, "color by execution time instead of budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appName == "" {
		return fmt.Errorf("heatmap: -app is required")
	}
	app, err := workload.ByName(*appName)
	if err != nil {
		return err
	}
	s := sim.New(sim.Config{Nodes: *nodes, Repeats: 5})
	catalog := cloud.Catalog120()

	// Collect value per VM.
	value := map[string]float64{}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, vm := range catalog {
		p := s.ProfileTimed(app, vm, *seed)
		v := p.CostUSD
		if *byTime {
			v = p.P90Seconds
		}
		value[vm.Name] = v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}

	// Axes: distinct vCPU counts x distinct GiB/vCPU ratios.
	cpuSet := map[int]bool{}
	ratioSet := map[float64]bool{}
	for _, vm := range catalog {
		cpuSet[vm.VCPUs] = true
		ratioSet[round1(vm.MemPerVCPU())] = true
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

	metric := "budget"
	if *byTime {
		metric = "execution time"
	}
	fmt.Fprintf(outW, "%s heat map of %s (0 = best, 9 = worst, . = no such shape)\n", metric, app.Name)
	fmt.Fprintf(outW, "%9s", "GiB/vCPU")
	for _, c := range cpus {
		fmt.Fprintf(outW, "%4d", c)
	}
	fmt.Fprintln(outW, " <- total vCPUs per node")
	for i := len(ratios) - 1; i >= 0; i-- {
		fmt.Fprintf(outW, "%9.1f", ratios[i])
		for _, c := range cpus {
			best := math.Inf(1)
			for _, vm := range catalog {
				if vm.VCPUs == c && round1(vm.MemPerVCPU()) == ratios[i] {
					if v := value[vm.Name]; v < best {
						best = v
					}
				}
			}
			if math.IsInf(best, 1) {
				fmt.Fprintf(outW, "%4s", ".")
				continue
			}
			d := int(9 * (math.Log(best) - math.Log(lo)) / (math.Log(hi) - math.Log(lo)))
			fmt.Fprintf(outW, "%4d", d)
		}
		fmt.Fprintln(outW)
	}
	return nil
}

func round1(x float64) float64 { return math.Round(x*10) / 10 }

func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	fs.SetOutput(errW)
	dir := fs.String("store", "vesta-store", "measurement store directory")
	appName := fs.String("app", "", "application from Table 3 (required)")
	vmName := fs.String("vm", "", "single VM type; empty profiles the whole catalog")
	nodes := fs.Int("nodes", 4, "cluster size")
	repeats := fs.Int("repeats", 10, "repeated runs per configuration")
	withTrace := fs.Bool("trace", false, "persist the sampled metric traces (CSV sidecars)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appName == "" {
		return fmt.Errorf("collect: -app is required")
	}
	app, err := workload.ByName(*appName)
	if err != nil {
		return err
	}
	st, err := store.Open(*dir)
	if err != nil {
		return err
	}
	catalog := cloud.Catalog120()
	var vms []cloud.VMType
	if *vmName != "" {
		vm, err := cloud.Find(catalog, *vmName)
		if err != nil {
			return err
		}
		vms = []cloud.VMType{vm}
	} else {
		vms = catalog
	}
	s := sim.New(sim.Config{Nodes: *nodes, Repeats: *repeats})
	for i, vm := range vms {
		p := s.ProfileRun(app, vm, *seed)
		if err := st.Put(p, *withTrace); err != nil {
			return err
		}
		if (i+1)%20 == 0 || i == len(vms)-1 {
			fmt.Fprintf(outW, "collected %d/%d configurations\n", i+1, len(vms))
		}
	}
	fmt.Fprintf(outW, "store %s now holds %d records\n", st.Dir(), st.Len())
	return nil
}

func cmdHistory(args []string) error {
	fs := flag.NewFlagSet("history", flag.ContinueOnError)
	fs.SetOutput(errW)
	dir := fs.String("store", "vesta-store", "measurement store directory")
	appName := fs.String("app", "", "filter by application")
	vmName := fs.String("vm", "", "filter by VM type")
	best := fs.Bool("best", false, "show only the best record per application")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := store.Open(*dir)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(outW, 2, 4, 2, ' ', 0)
	defer w.Flush()
	if *best {
		fmt.Fprintln(w, "APPLICATION\tBEST VM\tP90(s)\tBUDGET($)")
		for _, app := range st.Apps() {
			rec, err := st.BestByTime(app)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%s\t%.1f\t%.4f\n", rec.App, rec.VM, rec.P90Seconds, rec.CostUSD)
		}
		return nil
	}
	recs := st.Find(store.Query{App: *appName, VM: *vmName})
	if len(recs) == 0 {
		return fmt.Errorf("history: no matching records in %s", st.Dir())
	}
	fmt.Fprintln(w, "APPLICATION\tFRAMEWORK\tVM\tP90(s)\tMEAN(s)\tBUDGET($)\tRUNS\tTRACE")
	for _, r := range recs {
		trace := "-"
		if r.TraceFile != "" {
			trace = r.TraceFile
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.1f\t%.1f\t%.4f\t%d\t%s\n",
			r.App, r.Framework, r.VM, r.P90Seconds, r.MeanSec, r.CostUSD, len(r.Runs), trace)
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	fs.SetOutput(errW)
	appName := fs.String("app", "", "application from Table 3 (required)")
	vmName := fs.String("vm", "m5.xlarge", "VM type")
	nodes := fs.Int("nodes", 4, "cluster size")
	width := fs.Int("width", 48, "sparkline width")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appName == "" {
		return fmt.Errorf("inspect: -app is required")
	}
	app, err := workload.ByName(*appName)
	if err != nil {
		return err
	}
	vm, err := cloud.Find(cloud.Catalog120(), *vmName)
	if err != nil {
		return err
	}
	p := sim.New(sim.Config{Nodes: *nodes, Repeats: 3}).ProfileRun(app, vm, *seed)
	fmt.Fprintf(outW, "%s on %d x %s (P90 %.1f s)\n", app.Name, *nodes, vm.Name, p.P90Seconds)
	fmt.Fprint(outW, traceview.Render(p.Trace, *width))
	fmt.Fprintln(outW, "correlation similarities:")
	for i := 0; i < metrics.NumCorrelations; i++ {
		fmt.Fprintf(outW, "  %-28s %+.2f\n", metrics.CorrelationNames[i], p.Corr[i])
	}
	return nil
}

func cmdClusterSize(args []string) error {
	fs := flag.NewFlagSet("clustersize", flag.ContinueOnError)
	fs.SetOutput(errW)
	knowledgeFile := fs.String("knowledge", "knowledge.json", "knowledge file from 'vesta profile'")
	appName := fs.String("app", "", "target application from Table 3 (required)")
	vmName := fs.String("vm", "m5.xlarge", "VM type to size the cluster of")
	seed := fs.Uint64("seed", 1, "online seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appName == "" {
		return fmt.Errorf("clustersize: -app is required")
	}
	app, err := workload.ByName(*appName)
	if err != nil {
		return err
	}
	sys, err := core.New(core.Config{Seed: *seed}, cloud.Catalog120())
	if err != nil {
		return err
	}
	f, err := os.Open(*knowledgeFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sys.LoadKnowledge(f); err != nil {
		return err
	}
	meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), *seed)
	rec, err := sys.RecommendClusterSize(app, *vmName, []int{2, 4, 8, 16, 32}, meter)
	if err != nil {
		return err
	}
	lean := "fat (parallelism-leaning)"
	if rec.Thin {
		lean = "thin (iteration-leaning)"
	}
	fmt.Fprintf(outW, "%s on %s: %s workload\n", rec.Target, rec.VM, lean)
	w := tabwriter.NewWriter(outW, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NODES\tP90(s)\tBUDGET($)\tMEASURED")
	for _, opt := range rec.Options {
		if opt.Measured {
			fmt.Fprintf(w, "%d\t%.1f\t%.4f\tyes\n", opt.Nodes, opt.P90Seconds, opt.CostUSD)
		} else {
			fmt.Fprintf(w, "%d\t-\t-\tpruned\n", opt.Nodes)
		}
	}
	w.Flush()
	fmt.Fprintf(outW, "recommended: %d nodes (fastest), %d nodes (cheapest); %d reference runs\n",
		rec.BestByTime, rec.BestByCost, rec.Runs)
	return nil
}

func cmdKnowledge(args []string) error {
	fs := flag.NewFlagSet("knowledge", flag.ContinueOnError)
	fs.SetOutput(errW)
	knowledgeFile := fs.String("knowledge", "knowledge.json", "knowledge file from 'vesta profile'")
	topVMs := fs.Int("top", 3, "top VM types to show per label")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := core.New(core.Config{}, cloud.Catalog120())
	if err != nil {
		return err
	}
	f, err := os.Open(*knowledgeFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sys.LoadKnowledge(f); err != nil {
		return err
	}
	k := sys.Knowledge()
	st := k.Graph.Stats(0.05)
	fmt.Fprintf(outW, "knowledge: %d source workloads, %d labels, %d VM types\n",
		st.Workloads, st.Labels, st.VMs)
	fmt.Fprintf(outW, "edges (weight > 0.05): %d source workload-label, %d target, %d label-VM\n",
		st.SourceEdges, st.TargetEdges, st.LabelVMEdges)
	fmt.Fprintf(outW, "kept correlation features: %v of %d\n\n", k.Kept, metrics.NumCorrelations)
	for li, label := range k.Labels {
		// Members: sources whose strongest membership is this label.
		var members []string
		for i, m := range k.SourceMemberships {
			best := 0
			for c := range m {
				if m[c] > m[best] {
					best = c
				}
			}
			if best == li {
				members = append(members, k.SourceNames[i])
			}
		}
		fmt.Fprintf(outW, "%s: members %v\n", label, members)
		weights := make([]float64, len(k.Labels))
		weights[li] = 1
		scores := k.Graph.ScoreVMsFromWeights(weights)
		fmt.Fprintf(outW, "  top VMs:")
		for i, sc := range scores {
			if i >= *topVMs {
				break
			}
			fmt.Fprintf(outW, " %s(%.2f)", sc.VM, sc.Score)
		}
		fmt.Fprintln(outW)
	}
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	fs.SetOutput(errW)
	knowledgeFile := fs.String("knowledge", "knowledge.json", "knowledge file from 'vesta profile'")
	appsFlag := fs.String("apps", "", "comma-separated Table 3 applications (required)")
	deadline := fs.Float64("deadline", 0, "per-application deadline in seconds (0 = none)")
	nodes := fs.Int("nodes", 4, "cluster size per application")
	seed := fs.Uint64("seed", 1, "online seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appsFlag == "" {
		return fmt.Errorf("plan: -apps is required")
	}
	sys, err := core.New(core.Config{Seed: *seed}, cloud.Catalog120())
	if err != nil {
		return err
	}
	f, err := os.Open(*knowledgeFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sys.LoadKnowledge(f); err != nil {
		return err
	}
	var reqs []portfolio.Request
	for _, name := range strings.Split(*appsFlag, ",") {
		app, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		reqs = append(reqs, portfolio.Request{App: app, DeadlineSec: *deadline})
	}
	planner, err := portfolio.New(sys, cloud.Catalog120(), *nodes)
	if err != nil {
		return err
	}
	meter := oracle.NewMeter(sim.New(sim.Config{Nodes: *nodes}), *seed)
	res, err := planner.Plan(reqs, meter)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(outW, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "APPLICATION\tFRAMEWORK\tVM\tPRED TIME(s)\tPRED BUDGET($)\tDEADLINE")
	for _, a := range res.Assignments {
		status := "ok"
		if !a.MeetsDeadline {
			status = "VIOLATED"
		}
		if *deadline == 0 {
			status = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.1f\t%.4f\t%s\n",
			a.App, a.Framework, a.VM, a.PredictedSec, a.PredictedUSD, status)
	}
	w.Flush()
	fmt.Fprintln(outW, res.Summary())
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(errW)
	appName := fs.String("app", "", "application from Table 3 (required)")
	vmsFlag := fs.String("vms", "m5.xlarge,c5.xlarge,r5.xlarge,i3.xlarge,z1d.xlarge", "comma-separated VM types")
	nodes := fs.Int("nodes", 4, "cluster size")
	repeats := fs.Int("repeats", 10, "repeated runs per configuration")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appName == "" {
		return fmt.Errorf("compare: -app is required")
	}
	app, err := workload.ByName(*appName)
	if err != nil {
		return err
	}
	s := sim.New(sim.Config{Nodes: *nodes, Repeats: *repeats})
	catalog := cloud.Catalog120()

	type row struct {
		vm   cloud.VMType
		prof sim.Timing
	}
	var rows []row
	for _, name := range strings.Split(*vmsFlag, ",") {
		vm, err := cloud.Find(catalog, strings.TrimSpace(name))
		if err != nil {
			return err
		}
		rows = append(rows, row{vm: vm, prof: s.ProfileTimed(app, vm, *seed)})
	}
	// Fastest first.
	sort.Slice(rows, func(i, j int) bool { return rows[i].prof.P90Seconds < rows[j].prof.P90Seconds })

	fmt.Fprintf(outW, "%s on %d nodes (P90 over %d runs)\n", app, *nodes, *repeats)
	w := tabwriter.NewWriter(outW, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "VM TYPE\tvCPU\tMEM(GiB)\tP90(s)\tvs BEST\tBUDGET($)\tvs CHEAPEST")
	bestSec := rows[0].prof.P90Seconds
	cheapest := rows[0].prof.CostUSD
	for _, r := range rows {
		if r.prof.CostUSD < cheapest {
			cheapest = r.prof.CostUSD
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.1f\t%+.0f%%\t%.4f\t%+.0f%%\n",
			r.vm.Name, r.vm.VCPUs, r.vm.MemoryGiB,
			r.prof.P90Seconds, (r.prof.P90Seconds/bestSec-1)*100,
			r.prof.CostUSD, (r.prof.CostUSD/cheapest-1)*100)
	}
	return w.Flush()
}
