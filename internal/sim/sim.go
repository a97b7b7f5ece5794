// Package sim is the cluster-execution substrate that stands in for the
// paper's Amazon EC2 testbed running Hadoop, Hive and Spark. It simulates a
// big data application on a cluster of identical VMs using a Bulk
// Synchronous Parallel (BSP) stage model — the architecture the paper's
// conclusion identifies as common to all covered frameworks — and emits the
// execution time, the 5-second-sampled low-level metric trace, and the
// scalar execution metrics that Vesta's Data Collector consumes.
//
// Framework engines differ in how a kernel's demand turns into machine
// work:
//
//   - Hadoop materializes every shuffle to disk, re-reads input from HDFS on
//     every superstep, and pays a heavy per-job and per-stage JVM launch
//     cost.
//   - Hive adds query planning latency and a stage-multiplication factor on
//     top of the MapReduce execution model.
//   - Spark keeps shuffles in memory when they fit, caches re-used input
//     across iterations (RDD cache), pays small per-stage costs, but loses a
//     larger fraction of VM memory to executor overhead and suffers steep
//     penalties under memory pressure (spill/recompute; the Mesos-style
//     watcher converts outright OOM into a retry penalty, Section 5.1).
//
// These differences reproduce the paper's core phenomena: identical kernels
// show very different raw metric *levels* across frameworks (Figure 2's
// naive-reuse failure, Figure 1's differently shaped heat maps) while the
// *correlation structure* of the metrics stays kernel-intrinsic (the
// transferable knowledge of Table 1).
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"vesta/internal/chaos"
	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/obs"
	"vesta/internal/rng"
	"vesta/internal/stats"
	"vesta/internal/workload"
)

// PhaseKind labels the BSP phase a slice of wall-clock time belongs to.
type PhaseKind int

// The four BSP phases of a superstep.
const (
	PhaseRead PhaseKind = iota
	PhaseCompute
	PhaseShuffle
	PhaseSync
)

// String implements fmt.Stringer.
func (p PhaseKind) String() string {
	switch p {
	case PhaseRead:
		return "read"
	case PhaseCompute:
		return "compute"
	case PhaseShuffle:
		return "shuffle"
	case PhaseSync:
		return "sync"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Phase is one contiguous simulated activity interval.
type Phase struct {
	Kind    PhaseKind
	Seconds float64
	// Levels capture the characteristic resource utilization of the phase
	// (indexed by metrics.SeriesID), before sampling noise.
	Levels [metrics.NumSeries]float64
}

// RunResult is the outcome of a single simulated run.
type RunResult struct {
	App     workload.App
	VM      cloud.VMType
	Nodes   int
	Seconds float64
	CostUSD float64
	Trace   *metrics.Trace
	Exec    metrics.ExecStats
	Phases  []Phase
	// MemPressure is workingSet / usable memory; > 1 means spilling.
	MemPressure float64
	// LatencyMS and ThroughputMBps are the streaming service metrics the
	// paper's conclusion proposes for latency-sensitive workloads. They are
	// zero for batch workloads.
	LatencyMS      float64
	ThroughputMBps float64
}

// Profile aggregates the paper's repeated-measurement protocol: each
// (workload, VM type) pair is run Repeats times and summarized by the P90
// execution time (a conservative estimate under cloud variability).
type Profile struct {
	App        workload.App
	VM         cloud.VMType
	Nodes      int
	Runs       []float64
	P90Seconds float64
	MeanSec    float64
	CostUSD    float64 // P90 time x cluster price
	Trace      *metrics.Trace
	Exec       metrics.ExecStats
	// Corr is the correlation-similarity vector averaged over all repeats,
	// mirroring the paper's per-run correlation recording (Section 4.1).
	Corr metrics.CorrVector
	// P90LatencyMS and ThroughputMBps summarize the streaming service
	// metrics across repeats (zero for batch workloads).
	P90LatencyMS   float64
	ThroughputMBps float64
	// FailedRuns and WastedSec account for fault-injected repeats that died
	// before completing (ProfileAttempt only; always zero on ProfileRun).
	// WastedSec is the simulated cluster time burned by the failed runs —
	// the Figure-8-style overhead a resilient pipeline must still pay for.
	FailedRuns int
	WastedSec  float64
}

// Config tunes the simulator. The zero value is not usable; call New.
type Config struct {
	Nodes     int     // cluster size (VM count); the paper fixes this per app
	Repeats   int     // runs per (workload, VM) pair; paper: 10
	SampleSec float64 // metric sampling interval; paper: 5 s
	// Interference adds multi-tenant noisy-neighbour contention on top of
	// each workload's own run variance: 0 (default) is a quiet cloud, 0.2
	// is a busy shared region. It scales both the run-to-run jitter and the
	// phase-balance instability.
	Interference float64
	// Chaos, when non-nil, injects deterministic faults on the checked run
	// paths (RunChecked, RunAttempt, ProfileAttempt). The unchecked paths
	// (Run, RunTimed, ProfileRun) never fail regardless of Chaos — they are
	// the ground-truth physics that baselines and oracle tables rely on.
	Chaos *chaos.Plan
	// Tracer, when enabled, receives one event per injected fault on the
	// checked run paths, keyed by (app, vm, seed, attempt) — a pure function
	// of the chaos plan, so traces stay byte-identical at any worker count.
	Tracer *obs.Tracer
}

// DefaultConfig matches the paper's measurement protocol.
func DefaultConfig() Config {
	return Config{Nodes: 4, Repeats: 10, SampleSec: 5}
}

// Simulator executes workloads against VM types deterministically.
type Simulator struct {
	cfg Config
}

// New returns a Simulator with the given config, applying defaults for
// unset fields.
func New(cfg Config) *Simulator {
	def := DefaultConfig()
	if cfg.Nodes <= 0 {
		cfg.Nodes = def.Nodes
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = def.Repeats
	}
	if cfg.SampleSec <= 0 {
		cfg.SampleSec = def.SampleSec
	}
	return &Simulator{cfg: cfg}
}

// Config returns the simulator's effective configuration.
func (s *Simulator) Config() Config { return s.cfg }

// frameworkParams captures how each engine maps demand to machine work.
type frameworkParams struct {
	launchOverhead  float64 // job submission + container/JVM start, seconds
	stageOverhead   float64 // per-superstep scheduling cost, seconds
	planOverhead    float64 // SQL planning (Hive), seconds
	stageMultiplier float64 // extra stages from plan translation
	materialize     bool    // shuffle written to disk then read (MapReduce)
	canCache        bool    // input cached in memory across iterations
	usableMemFrac   float64 // fraction of VM memory usable for data
	cpuEfficiency   float64 // engine CPU efficiency (JVM, serialization)
}

func paramsFor(f workload.Framework) frameworkParams {
	switch f {
	case workload.Hadoop:
		return frameworkParams{
			launchOverhead: 12, stageOverhead: 7, planOverhead: 0,
			stageMultiplier: 1.0, materialize: true, canCache: false,
			usableMemFrac: 0.85, cpuEfficiency: 0.80,
		}
	case workload.Hive:
		return frameworkParams{
			launchOverhead: 14, stageOverhead: 7, planOverhead: 5,
			stageMultiplier: 1.3, materialize: true, canCache: false,
			usableMemFrac: 0.85, cpuEfficiency: 0.72,
		}
	case workload.Spark:
		return frameworkParams{
			launchOverhead: 5, stageOverhead: 0.9, planOverhead: 0,
			stageMultiplier: 1.0, materialize: false, canCache: true,
			usableMemFrac: 0.70, cpuEfficiency: 0.95,
		}
	}
	panic("sim: unknown framework " + string(f))
}

// splitGB is the HDFS-style input split size that determines task counts.
const splitGB = 0.125

// burstWindowSec is how long a burstable (T-family) VM sustains full speed.
const burstWindowSec = 120

// burstThrottle is the sustained CPU fraction once burst credits run out.
const burstThrottle = 0.55

// Run simulates one execution of app on a cluster of nodes x vm, using seed
// for run-to-run cloud noise, including the sampled metric trace. It never
// fails: pathological configurations (tiny memory, huge data) produce long
// execution times, exactly like an overloaded real cluster.
func (s *Simulator) Run(app workload.App, vm cloud.VMType, seed uint64) RunResult {
	pl := s.planRun(app, vm, nil)
	r, src := s.repeat(app, vm, seed, &pl, pl.phases)
	r.Trace = s.sampleTrace(new(metrics.Trace), r.Phases, &src, metrics.AllSeries)
	return r
}

// RunTimed is Run without the metric trace — the fast path for repeated
// measurements where only the execution time matters.
func (s *Simulator) RunTimed(app workload.App, vm cloud.VMType, seed uint64) RunResult {
	pl := s.planRun(app, vm, nil)
	r, _ := s.repeat(app, vm, seed, &pl, pl.phases)
	return r
}

// runPlan is the noise-free part of a run: everything that depends on the
// app, the VM's physics and the cluster but not on the seed. A profile plans
// once and draws each repeat's noise over the plan (see repeat and noisy).
type runPlan struct {
	// phases are the run's phases after burst throttling, before noise.
	phases   []Phase
	total    float64 // seconds before noise: overheads plus every phase
	exec     metrics.ExecStats
	pressure float64
	salt     uint64 // the app's and VM's part of every repeat's stream seed
	// noiseMu and variance parameterize the run-wide log-normal noise.
	noiseMu, variance float64
	// The streaming service model's constants; unset for batch workloads.
	streaming                                           bool
	arrivalMB, capacity, serviceMS, batchMS, computePen float64
}

// planRun computes the noise-free physics of a run of app on vm. The plan's
// phases live in buf when it has room for the run's 4*stages phases (a
// profile's plans share one pooled buffer) and in a new slice of exactly
// that size otherwise.
func (s *Simulator) planRun(app workload.App, vm cloud.VMType, buf []Phase) runPlan {
	p := paramsFor(app.Framework)
	d := app.Demand
	nodes := s.cfg.Nodes

	cores := float64(nodes * vm.VCPUs)
	cpuSpeed := vm.CPUFactor * p.cpuEfficiency

	data := app.InputGB
	iters := float64(d.Iterations)
	stages := math.Max(1, math.Round(iters*p.stageMultiplier))

	// Task parallelism: how well the data splits cover the cores. Each
	// superstep re-processes the partitioned data, so the per-stage task
	// count equals the split count.
	tasks := math.Max(1, math.Round(data/splitGB))
	tasksPerStage := tasks
	utilization := math.Min(1, tasks/cores)

	// Memory pressure on each node.
	usablePerNode := vm.MemoryGiB * p.usableMemFrac
	workingSetPerNode := d.MemPerGB * data / float64(nodes)
	pressure := workingSetPerNode / usablePerNode

	// Spill/recompute penalties under pressure.
	spillGBPerStage := 0.0
	computePenalty := 1.0
	if pressure > 1 {
		over := math.Min(pressure-1, 3)
		spillGBPerStage = over * usablePerNode * float64(nodes) / stages
		if p.canCache {
			// Spark: lost cache partitions are recomputed and the JVM heap
			// thrashes in GC; the Mesos-style memory watcher turns outright
			// OOM into retries rather than crashes. The penalty is
			// super-linear — modest overcommit already hurts badly.
			computePenalty = 1 + 1.5*over + 2*over*over
		} else {
			computePenalty = 1 + 0.4*over + 0.5*over*over
		}
	}

	// Spark RDD cache: what fraction of the re-read input fits in memory.
	cacheFit := 0.0
	if p.canCache && d.CacheReuse > 0 {
		cacheFit = math.Min(1, usablePerNode*float64(nodes)*0.6/math.Max(data, 1e-9))
	}

	skewFactor := 1 + d.Skew*0.6

	// Aggregate cluster bandwidths in GB/s.
	diskGBs := float64(nodes) * vm.DiskMBps / 1024
	netGBs := float64(nodes) * vm.NetworkGbps / 8 // Gbps -> GB/s

	// Total shuffle volume is ShufflePerGB x data per superstep; Hive's plan
	// translation spreads the same volume over more stages.
	shuffleVolPerStage := d.ShufflePerGB * data * iters / stages
	outputVol := d.OutputPerGB * data

	phases := buf[:0]
	if cap(phases) < 4*int(stages) {
		phases = make([]Phase, 0, 4*int(stages))
	}

	for st := 0; st < int(stages); st++ {
		first := st == 0
		// --- read phase ---
		readVol := 0.0
		if first {
			readVol = data
		} else {
			reread := d.CacheReuse * data
			readVol = reread * (1 - cacheFit)
			if !p.canCache {
				readVol = reread
			}
		}
		readVol += spillGBPerStage * 0.5
		readTime := readVol / math.Max(diskGBs, 1e-9)
		if d.Streaming {
			// Arrival-driven: ingest over the network instead of local scans.
			readTime = readVol / math.Max(netGBs, 1e-9)
		}

		// --- compute phase ---
		work := d.ComputePerGB * data / stages // core-seconds at baseline speed
		computeTime := work / (cores * cpuSpeed * math.Max(utilization, 1e-9)) *
			skewFactor * computePenalty

		// --- shuffle phase ---
		shuffleTime := shuffleVolPerStage / math.Max(netGBs, 1e-9) * skewFactor
		if p.materialize {
			// MapReduce writes map output to disk and reducers re-read it.
			shuffleTime += 2 * shuffleVolPerStage / math.Max(diskGBs, 1e-9)
		} else if pressure > 0.9 {
			// Spark spills shuffle blocks when memory is tight.
			shuffleTime += shuffleVolPerStage / math.Max(diskGBs, 1e-9) * math.Min(pressure, 2)
		}

		// --- write phase (final stage) + spill writes ---
		writeVol := spillGBPerStage * 0.5
		if st == int(stages)-1 {
			writeVol += outputVol
		}
		writeTime := writeVol / math.Max(diskGBs, 1e-9)

		// --- synchronization barrier ---
		// Beyond the per-framework stage overhead, wide clusters pay a
		// coordination cost per superstep (task scheduling, barrier fan-in)
		// and skewed workloads pay a straggler tail that grows with
		// parallelism. This gives each workload a finite optimal machine
		// size: scaling past the task count buys nothing and costs
		// coordination.
		coord := 0.05*math.Sqrt(cores) + 0.8*d.Skew*math.Log2(cores+1)
		syncTime := d.SyncIntensity*(0.4+0.15*math.Log2(float64(nodes)+1)) + p.stageOverhead + coord

		phases = append(phases,
			readPhase(readTime+writeTime, d.Streaming, pressure, utilization),
			computePhase(computeTime, pressure, utilization),
			shufflePhase(shuffleTime, p.materialize, pressure, utilization),
			syncPhase(syncTime, tasksPerStage),
		)
	}

	total := p.launchOverhead + p.planOverhead
	for i := range phases {
		total += phases[i].Seconds
	}

	// Burstable throttling: if the job outlives the burst window, CPU-bound
	// phases slow down for the remainder.
	if vm.Burstable && total > burstWindowSec {
		throttled := 0.0
		elapsed := 0.0
		for i := range phases {
			if elapsed > burstWindowSec && phases[i].Kind == PhaseCompute {
				extra := phases[i].Seconds * (1/burstThrottle - 1)
				phases[i].Seconds += extra
				throttled += extra
			}
			elapsed += phases[i].Seconds
		}
		total += throttled
	}

	pl := runPlan{
		phases: phases, total: total, pressure: pressure,
		exec: metrics.ExecStats{
			TasksCompute:       tasks * iters,
			TasksComm:          stages * float64(nodes),
			TasksSync:          stages,
			DataPerCycle:       data / math.Max(d.ComputePerGB*data*2.5, 1e-9) * 1e3, // GB per 1e9 cycles (2.5 GHz baseline)
			DataPerIteration:   data / iters,
			DataPerParallelism: data / tasks,
		},
		salt: hashString(app.Name) ^ hashString(vm.Name),
		// Multi-tenant interference (if configured) compounds the
		// workload's own variance; see noisy.
		noiseMu:  0.5 * s.cfg.Interference * s.cfg.Interference,
		variance: d.RunVariance + s.cfg.Interference,
	}

	// Streaming service metrics (the conclusion's extension): model the
	// pipeline as a queueing system driven by the ingest-to-capacity
	// utilization; see service.
	if d.Streaming {
		ingestMBs := netGBs * 1024 * 0.5 // half the fabric for ingest
		processMBs := cores * cpuSpeed / d.ComputePerGB * 1024
		pl.streaming = true
		pl.arrivalMB = data * 1024
		pl.capacity = math.Min(ingestMBs, processMBs)
		pl.serviceMS = 1e3 * d.ComputePerGB / 1024 / math.Max(cores*cpuSpeed, 1e-9) * 64 // per 64MB micro-batch
		pl.batchMS = 1e3 * (p.stageOverhead + d.SyncIntensity*0.4)
		pl.computePen = computePenalty // memory pressure hurts tail latency too
	}
	return pl
}

// noisy draws one repeat's run-to-run cloud noise from src and returns the
// run's noisy total: a multiplicative log-normal factor on the whole run
// plus independent per-phase structural jitter. The structural component
// matters: workloads with high RunVariance (Spark-svd++) do not just run
// slower or faster as a whole — their phase balance shifts between runs,
// which destabilizes the measured correlation vector exactly as the paper
// observes. A non-nil phases (the plan's phases or a copy of them) receives
// each phase's noisy time; a timed repeat passes nil and copies nothing.
func (pl *runPlan) noisy(src *rng.Source, phases []Phase) float64 {
	noise := src.LogNorm(pl.noiseMu, pl.variance)
	total := pl.total * noise
	adjusted := 0.0
	for i := range pl.phases {
		phaseNoise := noise * src.LogNorm(0, pl.variance/2)
		delta := pl.phases[i].Seconds * (phaseNoise - noise)
		if phases != nil {
			phases[i].Seconds *= phaseNoise
		}
		adjusted += delta
	}
	return total + adjusted
}

// service returns the streaming latency and throughput of a run that took
// total seconds (zero for batch workloads). Throughput is the sustained
// processing rate; latency grows sharply as the arrival rate approaches
// capacity (M/M/1-style 1/(1-rho) blow-up) plus the per-superstep batching
// delay.
func (pl *runPlan) service(total float64) (latencyMS, throughput float64) {
	if !pl.streaming {
		return 0, 0
	}
	arrival := pl.arrivalMB / math.Max(total, 1e-9) // offered load, MB/s
	throughput = math.Min(arrival, pl.capacity)
	rho := math.Min(arrival/math.Max(pl.capacity, 1e-9), 0.99)
	latencyMS = pl.serviceMS/(1-rho) + pl.batchMS
	latencyMS *= pl.computePen
	return latencyMS, throughput
}

// repeat is one run of the plan pl under seed: it draws the run's noise,
// rewriting phases (the plan's phases, or a copy of them) to their noisy
// times, and returns the RNG positioned for trace sampling.
func (s *Simulator) repeat(app workload.App, vm cloud.VMType, seed uint64, pl *runPlan, phases []Phase) (RunResult, rng.Source) {
	src := rng.New(seed ^ pl.salt)
	total := pl.noisy(src, phases)
	latencyMS, throughput := pl.service(total)
	hours := total / 3600
	return RunResult{
		App: app, VM: vm, Nodes: s.cfg.Nodes,
		Seconds: total,
		CostUSD: hours * vm.PriceHour * float64(s.cfg.Nodes),
		Exec:    pl.exec, Phases: phases,
		MemPressure:    pl.pressure,
		LatencyMS:      latencyMS,
		ThroughputMBps: throughput,
	}, *src
}

// runSeedStride spaces the per-repeat seeds of a profile; ProfileTimed must
// use the same stride as the repeat loop so its times match ProfileRun's.
const runSeedStride = 0x9e37

// Timing is the time-only summary of the repeated-measurement protocol:
// every field a caller reads when it ranks, budgets or calibrates on
// execution time alone. It deliberately carries no metric trace, execution
// stats or correlation vector, so no caller can read an empty trace by
// mistake.
type Timing struct {
	Runs           []float64
	P90Seconds     float64
	MeanSec        float64
	CostUSD        float64 // P90 time x cluster price
	P90LatencyMS   float64
	ThroughputMBps float64
}

// Timing returns the profile's time-only summary.
func (p Profile) Timing() Timing {
	return Timing{
		Runs: p.Runs, P90Seconds: p.P90Seconds, MeanSec: p.MeanSec, CostUSD: p.CostUSD,
		P90LatencyMS: p.P90LatencyMS, ThroughputMBps: p.ThroughputMBps,
	}
}

// summarize reduces the completed repeats of one (workload, VM) pair — their
// execution times, streaming latencies and summed throughput — to the
// protocol's summary: P90 time, cost at P90, P90 latency, mean throughput.
// Every profile path builds its timing fields here; the percentiles sort
// copies in the scratch's sort buffer.
func (s *Simulator) summarize(sc *repeatScratch, vm cloud.VMType, runs, lats []float64, thr float64) Timing {
	p90 := sc.p90(runs)
	return Timing{
		Runs: runs, P90Seconds: p90, MeanSec: stats.Mean(runs),
		CostUSD:      p90 / 3600 * vm.PriceHour * float64(s.cfg.Nodes),
		P90LatencyMS: sc.p90(lats), ThroughputMBps: thr / float64(len(runs)),
	}
}

// withTiming returns p carrying t's summary fields.
func (p Profile) withTiming(t Timing) Profile {
	p.Runs, p.P90Seconds, p.MeanSec, p.CostUSD = t.Runs, t.P90Seconds, t.MeanSec, t.CostUSD
	p.P90LatencyMS, p.ThroughputMBps = t.P90LatencyMS, t.ThroughputMBps
	return p
}

// ProfileRun performs the paper's full measurement protocol: Repeats runs,
// P90 execution time, cost at P90, the metric trace of the first run and the
// correlation vector averaged over all runs.
func (s *Simulator) ProfileRun(app workload.App, vm cloud.VMType, seed uint64) Profile {
	p, _ := s.profile(app, vm, seed, 0, nil, metrics.AllFeatures, true)
	return p
}

// ProfileFeatures is ProfileRun for a reader of the correlation features in
// feats: the same repeats over the same per-repeat seeds, but every repeat
// samples only metrics.SeriesOf(feats), correlates only feats, and counts
// toward Corr when it is valid on feats. No trace is kept (Trace is nil) and
// Corr's components outside feats are NaN. The series left out only skip
// their draws, so every other field equals ProfileRun's bit for bit, and so
// does every component in feats while no repeat is invalid outside them —
// as no fault-free repeat is.
func (s *Simulator) ProfileFeatures(app workload.App, vm cloud.VMType, seed uint64, feats metrics.FeatureSet) Profile {
	p, _ := s.profile(app, vm, seed, 0, nil, feats, false)
	return p
}

// repeatScratch is the working memory of one profile's repeat loop: the
// plan every repeat draws its noise over, the phase buffer a traced repeat
// copies the plan into, the backing store of the trace each repeat whose
// trace is not kept samples its correlation series into, the latency
// samples the summary reads and the buffer its percentiles sort. Calls
// borrow it from scratchPool, so the buffers live across calls; nothing a
// Profile or Timing returns points into them.
type repeatScratch struct {
	plan   runPlan
	phases []Phase
	// series holds room for the longest possible trace in every correlation
	// series; a lean repeat's trace takes the ones it samples, so repeats of
	// any feature set share it without reallocating.
	series [metrics.NumSeries][]float64
	trace  metrics.Trace
	lats   []float64
	sorted []float64
}

var scratchPool = sync.Pool{New: func() any {
	sc := new(repeatScratch)
	reserveTrace(&sc.trace, metrics.CorrelationSeries, maxTraceSamples+1)
	sc.series = sc.trace.Series
	return sc
}}

// leanTrace returns the scratch trace with every series' room restored.
func (sc *repeatScratch) leanTrace() *metrics.Trace {
	sc.trace.Series = sc.series
	return &sc.trace
}

// p90 is stats.P90(xs) computed on a copy sorted in the scratch buffer.
func (sc *repeatScratch) p90(xs []float64) float64 {
	sc.sorted = append(sc.sorted[:0], xs...)
	sort.Float64s(sc.sorted)
	return stats.SortedPercentile(sc.sorted, 90)
}

// profile is the repeat loop behind ProfileRun, ProfileFeatures (faults nil:
// no run can fail) and ProfileAttempt. It plans the run once; each repeat
// copies the plan's phases, draws its noise over the copy and feeds the
// correlation features in feats: it samples only metrics.SeriesOf(feats)
// into the scratch trace, skipping the other series' draws, and counts
// toward Corr when its vector is valid on feats. With keepTrace the first
// repeat to complete instead samples every series into a new trace that the
// Profile returns; without it every repeat is lean and Trace is nil.
func (s *Simulator) profile(app workload.App, vm cloud.VMType, seed, attempt uint64, faults *chaos.Plan,
	feats metrics.FeatureSet, keepTrace bool) (Profile, error) {
	sc := scratchPool.Get().(*repeatScratch)
	defer scratchPool.Put(sc)
	sc.plan = s.planRun(app, vm, sc.plan.phases)
	var (
		runs    = make([]float64, 0, s.cfg.Repeats)
		lats    = sc.lats[:0]
		thr     float64
		first   RunResult
		haveRun bool
		corrSum metrics.CorrVector
		corrN   int
		failed  int
		wasted  float64
		lastErr error
		lean    = metrics.SeriesOf(feats)
		kept    *metrics.Trace // reused by first repeats that fail
	)
	for i := 0; i < s.cfg.Repeats; i++ {
		runSeed := seed + uint64(i)*runSeedStride
		tr, ser := sc.leanTrace(), lean
		if keepTrace && !haveRun {
			if kept == nil {
				kept = new(metrics.Trace)
			}
			tr, ser = kept, metrics.AllSeries
		}
		f := faults.ForRun(app.Name, vm.Name, runSeed, attempt)
		sc.phases = append(sc.phases[:0], sc.plan.phases...)
		r, err := s.attempt(app, vm, runSeed, attempt, f, &sc.plan, sc.phases, tr, ser)
		if err != nil {
			failed++
			var re *RunError
			if errors.As(err, &re) {
				wasted += re.WastedSec
			}
			lastErr = err
			continue
		}
		runs = append(runs, r.Seconds)
		lats = append(lats, r.LatencyMS)
		thr += r.ThroughputMBps
		if !haveRun {
			first, haveRun = r, true
		}
		cv := metrics.CorrelationsOf(r.Trace, r.Exec, feats)
		if cv.ValidOn(feats) {
			for j := range corrSum {
				corrSum[j] += cv[j]
			}
			corrN++
		}
	}
	sc.lats = lats
	if len(runs) == 0 {
		return Profile{
			App: app, VM: vm, Nodes: s.cfg.Nodes,
			FailedRuns: failed, WastedSec: wasted,
		}, lastErr
	}
	for j := range corrSum {
		if corrN > 0 {
			corrSum[j] /= float64(corrN)
		} else {
			corrSum[j] = math.NaN()
		}
	}
	if !keepTrace {
		first.Trace = nil // the scratch trace: never handed out
	}
	return Profile{
		App: app, VM: vm, Nodes: s.cfg.Nodes,
		Trace: first.Trace, Exec: first.Exec, Corr: corrSum,
		FailedRuns: failed, WastedSec: wasted,
	}.withTiming(s.summarize(sc, vm, runs, lats, thr)), nil
}

// ProfileTimed is ProfileRun without the metric traces: the same repeats
// over the same per-repeat seeds, each drawing its noise over one pooled
// plan and reading the plan's phase times without copying a phase. The
// physics finishes before trace sampling starts, so every field equals
// ProfileRun's bit for bit at a fraction of the cost. Use it wherever only
// times are read.
func (s *Simulator) ProfileTimed(app workload.App, vm cloud.VMType, seed uint64) Timing {
	sc := scratchPool.Get().(*repeatScratch)
	defer scratchPool.Put(sc)
	sc.plan = s.planRun(app, vm, sc.plan.phases)
	pl := &sc.plan
	runs := make([]float64, s.cfg.Repeats)
	lats := sc.lats[:0]
	thr := 0.0
	for i := range runs {
		runs[i] = pl.noisy(rng.New((seed+uint64(i)*runSeedStride)^pl.salt), nil)
		lat, tput := pl.service(runs[i])
		lats = append(lats, lat)
		thr += tput
	}
	sc.lats = lats
	return s.summarize(sc, vm, runs, lats, thr)
}

// phase constructors set the characteristic utilization levels that the
// sampler perturbs. Levels are fractions of capacity in [0, 1].

func readPhase(sec float64, streaming bool, pressure, util float64) Phase {
	var lv [metrics.NumSeries]float64
	lv[metrics.CPUUser] = 0.12
	lv[metrics.CPUSystem] = 0.10
	lv[metrics.CPUIOWait] = 0.45
	lv[metrics.CPUIdle] = 1 - lv[metrics.CPUUser] - lv[metrics.CPUSystem] - lv[metrics.CPUIOWait]
	lv[metrics.RAMUsed] = clamp01(0.3 + 0.5*math.Min(pressure, 1))
	lv[metrics.BufferUsed] = 0.55
	lv[metrics.CacheUsed] = 0.65
	lv[metrics.SwapRate] = swapLevel(pressure)
	lv[metrics.DiskRead] = 0.85
	lv[metrics.DiskWrite] = 0.25
	lv[metrics.DiskUtil] = 0.80
	lv[metrics.NetSend] = 0.05
	lv[metrics.NetRecv] = 0.08
	if streaming {
		lv[metrics.DiskRead], lv[metrics.NetRecv] = 0.20, 0.85
		lv[metrics.NetSend] = 0.30
		lv[metrics.NetDrop] = 0.04
	}
	lv[metrics.TasksComputeStep] = 0.2 * util
	lv[metrics.TasksCommStep] = 0.3
	lv[metrics.TasksSyncStep] = 0.05
	return Phase{Kind: PhaseRead, Seconds: sec, Levels: lv}
}

func computePhase(sec float64, pressure, util float64) Phase {
	var lv [metrics.NumSeries]float64
	lv[metrics.CPUUser] = clamp01(0.85 * util)
	lv[metrics.CPUSystem] = 0.06
	lv[metrics.CPUIOWait] = 0.03
	lv[metrics.CPUIdle] = clamp01(1 - lv[metrics.CPUUser] - lv[metrics.CPUSystem] - lv[metrics.CPUIOWait])
	lv[metrics.RAMUsed] = clamp01(0.35 + 0.6*math.Min(pressure, 1))
	lv[metrics.BufferUsed] = 0.25
	lv[metrics.CacheUsed] = 0.45
	lv[metrics.SwapRate] = swapLevel(pressure)
	lv[metrics.DiskRead] = 0.06
	lv[metrics.DiskWrite] = 0.05
	lv[metrics.DiskUtil] = 0.08
	lv[metrics.NetSend] = 0.04
	lv[metrics.NetRecv] = 0.04
	lv[metrics.TasksComputeStep] = clamp01(0.9 * util)
	lv[metrics.TasksCommStep] = 0.05
	lv[metrics.TasksSyncStep] = 0.03
	if pressure > 1 {
		// Spill traffic shows up as background disk activity.
		lv[metrics.DiskRead] = 0.30
		lv[metrics.DiskWrite] = 0.35
		lv[metrics.DiskUtil] = 0.40
		lv[metrics.CPUIOWait] = 0.15
	}
	return Phase{Kind: PhaseCompute, Seconds: sec, Levels: lv}
}

func shufflePhase(sec float64, materialize bool, pressure, util float64) Phase {
	var lv [metrics.NumSeries]float64
	lv[metrics.CPUUser] = 0.20
	lv[metrics.CPUSystem] = 0.22
	lv[metrics.CPUIOWait] = 0.18
	lv[metrics.CPUIdle] = clamp01(1 - lv[metrics.CPUUser] - lv[metrics.CPUSystem] - lv[metrics.CPUIOWait])
	lv[metrics.RAMUsed] = clamp01(0.30 + 0.5*math.Min(pressure, 1))
	lv[metrics.BufferUsed] = 0.60
	lv[metrics.CacheUsed] = 0.55
	lv[metrics.SwapRate] = swapLevel(pressure)
	lv[metrics.NetSend] = 0.80
	lv[metrics.NetRecv] = 0.80
	lv[metrics.NetDrop] = 0.02
	if materialize {
		// MapReduce: map outputs written to disk and re-read by reducers.
		lv[metrics.DiskRead] = 0.55
		lv[metrics.DiskWrite] = 0.60
		lv[metrics.DiskUtil] = 0.65
	} else {
		// Spark also writes shuffle files to local disk (without HDFS
		// round-trips), so shuffle-time disk activity is moderate, not zero.
		lv[metrics.DiskRead] = 0.42
		lv[metrics.DiskWrite] = 0.50
		lv[metrics.DiskUtil] = 0.52
	}
	lv[metrics.TasksComputeStep] = 0.10
	lv[metrics.TasksCommStep] = clamp01(0.9 * util)
	// Tasks pile into the superstep barrier while the shuffle drains, so the
	// synchronization-step count peaks here (framework-independent).
	lv[metrics.TasksSyncStep] = 0.50
	return Phase{Kind: PhaseShuffle, Seconds: sec, Levels: lv}
}

func syncPhase(sec float64, tasksPerStage float64) Phase {
	var lv [metrics.NumSeries]float64
	lv[metrics.CPUUser] = 0.05
	lv[metrics.CPUSystem] = 0.04
	lv[metrics.CPUIOWait] = 0.02
	lv[metrics.CPUIdle] = 1 - lv[metrics.CPUUser] - lv[metrics.CPUSystem] - lv[metrics.CPUIOWait]
	lv[metrics.RAMUsed] = 0.30
	lv[metrics.BufferUsed] = 0.20
	lv[metrics.CacheUsed] = 0.40
	lv[metrics.DiskRead] = 0.02
	lv[metrics.DiskWrite] = 0.03
	lv[metrics.DiskUtil] = 0.04
	lv[metrics.NetSend] = 0.10
	lv[metrics.NetRecv] = 0.10
	lv[metrics.TasksComputeStep] = 0.02
	lv[metrics.TasksCommStep] = 0.05
	// Most tasks have drained from the barrier by now; the scheduler is
	// setting up the next superstep.
	lv[metrics.TasksSyncStep] = clamp01(0.15 + 0.1*math.Min(tasksPerStage/64, 1))
	return Phase{Kind: PhaseSync, Seconds: sec, Levels: lv}
}

func swapLevel(pressure float64) float64 {
	if pressure <= 1 {
		return 0.01 * pressure
	}
	return clamp01(0.2 * (pressure - 1))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// maxTraceSamples caps a run's trace length: the collector samples every
// SampleSec, but for very long runs it downsamples (widens the interval) so
// the stored trace stays bounded — correlation features depend on the phase
// structure, not on the raw sample count.
const maxTraceSamples = 512

// reserveTrace empties tr: each series in keep gets room for n samples
// (carved from one new slab unless every one of them already has it) and
// every other series is left absent (nil).
func reserveTrace(tr *metrics.Trace, keep metrics.SeriesSet, n int) {
	room := true
	for id := range tr.Series {
		if keep.Has(metrics.SeriesID(id)) && cap(tr.Series[id]) < n {
			room = false
		}
	}
	var slab []float64
	if !room {
		slab = make([]float64, bits.OnesCount32(uint32(keep))*n)
	}
	*tr = metrics.Trace{Series: tr.Series}
	for id := range tr.Series {
		switch {
		case !keep.Has(metrics.SeriesID(id)):
			tr.Series[id] = nil
		case room:
			tr.Series[id] = tr.Series[id][:0]
		default:
			tr.Series[id], slab = slab[:0:n], slab[n:]
		}
	}
}

// drawsPerSeries is how many Uint64 draws one series' sample takes: two
// normal draws of two each.
const drawsPerSeries = 4

// sampledSeries is one series a trace samples: its ID, the draws of the
// unsampled series before it that the stream skips, and whether it reports
// the window maximum (a step-task count) rather than the time average.
type sampledSeries struct {
	id   metrics.SeriesID
	skip int
	max  bool
}

// sampleTrace fills tr with the run's metric trace, walking the phase list
// and emitting one sample per SampleSec with multiplicative noise,
// guaranteeing at least one sample per run. Only the series in keep are
// mixed and sampled; every sample advances the stream past the draws the
// other series would take (rng.Source.Skip jumps the longer runs in O(1)),
// so the kept series are bit-identical to a full trace's, and the other
// series stay absent (nil). tr is sized once for the whole run and
// returned.
func (s *Simulator) sampleTrace(tr *metrics.Trace, phases []Phase, src *rng.Source, keep metrics.SeriesSet) *metrics.Trace {
	interval := s.cfg.SampleSec
	total := 0.0
	for i := range phases {
		total += phases[i].Seconds
	}
	if total/interval > maxTraceSamples {
		interval = total / maxTraceSamples
	}
	// One sample per window, plus one for rounding at the last boundary.
	n := maxTraceSamples + 1
	if w := total / interval; w < maxTraceSamples {
		n = int(math.Ceil(math.Max(w, 0))) + 1
	}
	reserveTrace(tr, keep, n)
	tr.SampleSec = interval

	var sampledBuf [metrics.NumSeries]sampledSeries
	sampled := sampledBuf[:0]
	tail := 0 // draws of the unsampled series after the last sampled one
	for id := metrics.SeriesID(0); id < metrics.NumSeries; id++ {
		if !keep.Has(id) {
			tail += drawsPerSeries
			continue
		}
		isMax := id == metrics.TasksComputeStep || id == metrics.TasksCommStep || id == metrics.TasksSyncStep
		sampled = append(sampled, sampledSeries{id: id, skip: tail, max: isMax})
		tail = 0
	}

	// The collector reports average utilizations per sampling window
	// (Section 4.1: "average resource utilizations" every 5 seconds), so
	// each sample blends the levels of every phase active inside the
	// window, weighted by the time the phase spends in it. This matters: a
	// 1-second barrier inside a 5-second window contributes 20% of the
	// sample instead of aliasing between all-or-nothing.
	emit := func(levels *[metrics.NumSeries]float64) {
		for _, ss := range sampled {
			if ss.skip > 0 {
				src.Skip(ss.skip)
			}
			v := levels[ss.id]
			// +/-8% relative noise plus a small absolute floor keeps
			// constant series from producing degenerate zero-variance
			// correlations.
			v = v*(1+src.Norm(0, 0.08)) + math.Abs(src.Norm(0, 0.01))
			tr.Series[ss.id] = append(tr.Series[ss.id], clamp01(v))
		}
		if tail > 0 {
			src.Skip(tail)
		}
	}

	if total <= 0 {
		// Degenerate zero-length run: emit one sample of the first phase.
		if len(phases) > 0 {
			emit(&phases[0].Levels)
		}
		return tr
	}

	winStart := 0.0
	pi := 0         // current phase index
	phaseEnd := 0.0 // absolute end time of phases[pi]
	if len(phases) > 0 {
		phaseEnd = phases[0].Seconds
	}
	for winStart < total {
		winEnd := math.Min(winStart+interval, total)
		var mix [metrics.NumSeries]float64
		covered := 0.0
		cursor := winStart
		for cursor < winEnd-1e-12 && pi < len(phases) {
			// Time this phase contributes inside the window.
			sliceEnd := math.Min(phaseEnd, winEnd)
			dur := sliceEnd - cursor
			if dur > 0 {
				levels := &phases[pi].Levels
				for _, ss := range sampled {
					if ss.max {
						// Step-task counts come from the framework's
						// scheduler, not from time-averaged sampling: a
						// barrier is reported for the window no matter how
						// short it is. Track the window maximum (scaled by
						// covered time below).
						if levels[ss.id] > mix[ss.id]/math.Max(covered+dur, 1e-12) {
							mix[ss.id] = levels[ss.id] * (covered + dur)
						}
					} else {
						mix[ss.id] += levels[ss.id] * dur
					}
				}
				covered += dur
				cursor = sliceEnd
			}
			if phaseEnd <= winEnd+1e-12 && pi < len(phases) {
				pi++
				if pi < len(phases) {
					phaseEnd += phases[pi].Seconds
				}
			} else {
				break
			}
		}
		if covered > 0 {
			for _, ss := range sampled {
				mix[ss.id] /= covered
			}
			emit(&mix)
		}
		winStart = winEnd
	}
	if tr.Len() == 0 {
		emit(&phases[0].Levels)
	}
	return tr
}

// hashString gives a stable 64-bit hash (FNV-1a) for seed mixing.
func hashString(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
