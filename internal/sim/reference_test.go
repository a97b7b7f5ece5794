package sim

// A verbatim copy of the simulator's run, trace-sampling and profile paths
// as they were before a profile's repeats went lean (repeats after the first
// sample only metrics.CorrelationSeries, buffers are reused across repeats,
// the kept trace is sized once). Only the names are changed. The tests below
// hold the live code to this reference bit for bit, so a leaner repeat loop
// can never drift from the physics and sampling streams it replaced.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"vesta/internal/chaos"
	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/obs"
	"vesta/internal/rng"
	"vesta/internal/stats"
	"vesta/internal/workload"
)

// refRun simulates one execution of app on a cluster of nodes x vm, using seed
// for run-to-run cloud noise, including the sampled metric trace. It never
// fails: pathological configurations (tiny memory, huge data) produce long
// execution times, exactly like an overloaded real cluster.
func (s *Simulator) refRun(app workload.App, vm cloud.VMType, seed uint64) RunResult {
	r, src := s.refRunPhysics(app, vm, seed)
	r.Trace = s.refSampleTrace(r.Phases, src)
	return r
}

// refRunTimed is Run without the metric trace — the fast path for repeated
// measurements where only the execution time matters.
func (s *Simulator) refRunTimed(app workload.App, vm cloud.VMType, seed uint64) RunResult {
	r, _ := s.refRunPhysics(app, vm, seed)
	return r
}

// refRunPhysics computes the physics of one execution and returns the RNG positioned
// for trace sampling.
func (s *Simulator) refRunPhysics(app workload.App, vm cloud.VMType, seed uint64) (RunResult, *rng.Source) {
	src := rng.New(seed ^ hashString(app.Name) ^ hashString(vm.Name))
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

	var phases []Phase
	totalCPUWork := 0.0 // core-seconds actually consumed, for burst modeling

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
		totalCPUWork += work

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
	for _, ph := range phases {
		total += ph.Seconds
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

	// Run-to-run cloud noise: a multiplicative log-normal factor on the
	// whole run plus independent per-phase structural jitter. The structural
	// component matters: workloads with high RunVariance (Spark-svd++) do
	// not just run slower or faster as a whole — their phase balance shifts
	// between runs, which destabilizes the measured correlation vector
	// exactly as the paper observes. Multi-tenant interference (if
	// configured) compounds the workload's own variance.
	variance := d.RunVariance + s.cfg.Interference
	noise := src.LogNorm(0.5*s.cfg.Interference*s.cfg.Interference, variance)
	total = total * noise
	adjusted := 0.0
	for i := range phases {
		phaseNoise := noise * src.LogNorm(0, variance/2)
		delta := phases[i].Seconds * (phaseNoise - noise)
		phases[i].Seconds *= phaseNoise
		adjusted += delta
	}
	total += adjusted

	exec := metrics.ExecStats{
		TasksCompute:       tasks * iters,
		TasksComm:          stages * float64(nodes),
		TasksSync:          stages,
		DataPerCycle:       data / math.Max(d.ComputePerGB*data*2.5, 1e-9) * 1e3, // GB per 1e9 cycles (2.5 GHz baseline)
		DataPerIteration:   data / iters,
		DataPerParallelism: data / tasks,
	}

	// Streaming service metrics (the conclusion's extension): model the
	// pipeline as a queueing system driven by the ingest-to-capacity
	// utilization. Throughput is the sustained processing rate; latency
	// grows sharply as the arrival rate approaches capacity (M/M/1-style
	// 1/(1-rho) blow-up) plus the per-superstep batching delay.
	latencyMS, throughput := 0.0, 0.0
	if d.Streaming {
		ingestMBs := netGBs * 1024 * 0.5 // half the fabric for ingest
		processMBs := cores * cpuSpeed / d.ComputePerGB * 1024
		capacity := math.Min(ingestMBs, processMBs)
		arrival := data * 1024 / math.Max(total, 1e-9) // offered load, MB/s
		throughput = math.Min(arrival, capacity)
		rho := math.Min(arrival/math.Max(capacity, 1e-9), 0.99)
		serviceMS := 1e3 * d.ComputePerGB / 1024 / math.Max(cores*cpuSpeed, 1e-9) * 64 // per 64MB micro-batch
		batchMS := 1e3 * (p.stageOverhead + d.SyncIntensity*0.4)
		latencyMS = serviceMS/(1-rho) + batchMS
		latencyMS *= computePenalty // memory pressure hurts tail latency too
	}

	hours := total / 3600
	return RunResult{
		App: app, VM: vm, Nodes: nodes,
		Seconds: total,
		CostUSD: hours * vm.PriceHour * float64(nodes),
		Exec:    exec, Phases: phases,
		MemPressure:    pressure,
		LatencyMS:      latencyMS,
		ThroughputMBps: throughput,
	}, src
}

// refSummarize reduces the completed repeats of one (workload, VM) pair to
// the protocol's summary: P90 time, cost at P90, P90 latency, mean
// throughput.
func (s *Simulator) refSummarize(vm cloud.VMType, runs, lats []float64, thr float64) Timing {
	p90 := stats.P90(runs)
	return Timing{
		Runs: runs, P90Seconds: p90, MeanSec: stats.Mean(runs),
		CostUSD:      p90 / 3600 * vm.PriceHour * float64(s.cfg.Nodes),
		P90LatencyMS: stats.P90(lats), ThroughputMBps: thr / float64(len(runs)),
	}
}

// refProfileRun performs the paper's full measurement protocol: Repeats runs,
// P90 execution time, cost at P90, and the metric trace of the first run.
func (s *Simulator) refProfileRun(app workload.App, vm cloud.VMType, seed uint64) Profile {
	runs := make([]float64, s.cfg.Repeats)
	lats := make([]float64, s.cfg.Repeats)
	thr := 0.0
	var first RunResult
	var corrSum metrics.CorrVector
	for i := 0; i < s.cfg.Repeats; i++ {
		r := s.refRun(app, vm, seed+uint64(i)*runSeedStride)
		runs[i] = r.Seconds
		lats[i] = r.LatencyMS
		thr += r.ThroughputMBps
		if i == 0 {
			first = r
		}
		cv := metrics.Correlations(r.Trace, r.Exec)
		for j := range corrSum {
			corrSum[j] += cv[j]
		}
	}
	for j := range corrSum {
		corrSum[j] /= float64(s.cfg.Repeats)
	}
	return Profile{
		App: app, VM: vm, Nodes: s.cfg.Nodes,
		Trace: first.Trace, Exec: first.Exec, Corr: corrSum,
	}.withTiming(s.refSummarize(vm, runs, lats, thr))
}

// refProfileTimed is ProfileRun without the metric traces: the same repeats
// over the same per-repeat seeds, timed with RunTimed. The physics finishes
// before trace sampling starts, so every field equals ProfileRun's bit for
// bit at a fraction of the cost. Use it wherever only times are read.
func (s *Simulator) refProfileTimed(app workload.App, vm cloud.VMType, seed uint64) Timing {
	runs := make([]float64, s.cfg.Repeats)
	lats := make([]float64, s.cfg.Repeats)
	thr := 0.0
	for i := 0; i < s.cfg.Repeats; i++ {
		r := s.refRunTimed(app, vm, seed+uint64(i)*runSeedStride)
		runs[i] = r.Seconds
		lats[i] = r.LatencyMS
		thr += r.ThroughputMBps
	}
	return s.refSummarize(vm, runs, lats, thr)
}

// refSampleTrace walks the phase list emitting one sample per SampleSec with
// multiplicative noise, guaranteeing at least one sample per run.
func (s *Simulator) refSampleTrace(phases []Phase, src *rng.Source) *metrics.Trace {
	interval := s.cfg.SampleSec
	total := 0.0
	for _, ph := range phases {
		total += ph.Seconds
	}
	if total/interval > maxTraceSamples {
		interval = total / maxTraceSamples
	}
	tr := &metrics.Trace{SampleSec: interval}

	// The collector reports average utilizations per sampling window
	// (Section 4.1: "average resource utilizations" every 5 seconds), so
	// each sample blends the levels of every phase active inside the
	// window, weighted by the time the phase spends in it. This matters: a
	// 1-second barrier inside a 5-second window contributes 20% of the
	// sample instead of aliasing between all-or-nothing.
	emit := func(levels [metrics.NumSeries]float64) {
		for id := metrics.SeriesID(0); id < metrics.NumSeries; id++ {
			v := levels[id]
			// +/-8% relative noise plus a small absolute floor keeps
			// constant series from producing degenerate zero-variance
			// correlations.
			v = v*(1+src.Norm(0, 0.08)) + math.Abs(src.Norm(0, 0.01))
			tr.Series[id] = append(tr.Series[id], clamp01(v))
		}
	}

	if total <= 0 {
		// Degenerate zero-length run: emit one sample of the first phase.
		if len(phases) > 0 {
			emit(phases[0].Levels)
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
				for id := metrics.SeriesID(0); id < metrics.NumSeries; id++ {
					switch id {
					case metrics.TasksComputeStep, metrics.TasksCommStep, metrics.TasksSyncStep:
						// Step-task counts come from the framework's
						// scheduler, not from time-averaged sampling: a
						// barrier is reported for the window no matter how
						// short it is. Track the window maximum (scaled by
						// covered time below).
						if phases[pi].Levels[id] > mix[id]/math.Max(covered+dur, 1e-12) {
							mix[id] = phases[pi].Levels[id] * (covered + dur)
						}
					default:
						mix[id] += phases[pi].Levels[id] * dur
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
			for id := metrics.SeriesID(0); id < metrics.NumSeries; id++ {
				mix[id] /= covered
			}
			emit(mix)
		}
		winStart = winEnd
	}
	if tr.Len() == 0 {
		emit(phases[0].Levels)
	}
	return tr
}

// refRunAttempt is RunChecked for a specific retry attempt. Attempts re-roll
// the fault decision without touching the physics stream.
func (s *Simulator) refRunAttempt(app workload.App, vm cloud.VMType, seed, attempt uint64) (RunResult, error) {
	f := s.cfg.Chaos.ForRun(app.Name, vm.Name, seed, attempt)
	if f.LaunchFailure {
		// The cluster never came up: only launch (and plan) overhead burned,
		// no physics executed, no trace collected.
		p := paramsFor(app.Framework)
		wasted := p.launchOverhead + p.planOverhead
		s.faultEvent(app.Name, vm.Name, seed, attempt, chaos.LaunchFailure, "", wasted)
		return RunResult{
				App: app, VM: vm, Nodes: s.cfg.Nodes,
				Seconds: wasted,
				CostUSD: wasted / 3600 * vm.PriceHour * float64(s.cfg.Nodes),
			}, &RunError{
				Fault: chaos.LaunchFailure, App: app.Name, VM: vm.Name,
				WastedSec: wasted,
			}
	}

	r, src := s.refRunPhysics(app, vm, seed)

	if f.StragglerFactor != 1 {
		for i := range r.Phases {
			r.Phases[i].Seconds *= f.StragglerFactor
		}
		r.Seconds *= f.StragglerFactor
		r.CostUSD = r.Seconds / 3600 * vm.PriceHour * float64(r.Nodes)
		s.faultEvent(app.Name, vm.Name, seed, attempt, chaos.Straggler,
			fmt.Sprintf("factor=%s", obs.FormatValue(f.StragglerFactor)), -1)
	}

	// Terminal kills: preemption strikes any run; the OOM killer only runs
	// under real memory pressure. If both land, the earlier one wins.
	kill := chaos.None
	frac := 1.0
	if f.Preempt {
		kill, frac = chaos.SpotPreemption, f.PreemptFrac
	}
	if f.OOM && r.MemPressure > oomPressureGate && (kill == chaos.None || f.OOMFrac < frac) {
		kill, frac = chaos.OOMKill, f.OOMFrac
	}
	if kill != chaos.None {
		truncateRun(&r, frac)
		r.Trace = s.refSampleTrace(r.Phases, src)
		r.Trace.Partial = true
		refApplyDropout(r.Trace, f)
		s.faultEvent(app.Name, vm.Name, seed, attempt, kill,
			fmt.Sprintf("frac=%s", obs.FormatValue(frac)), r.Seconds)
		return r, &RunError{
			Fault: kill, App: app.Name, VM: vm.Name, WastedSec: r.Seconds,
		}
	}

	r.Trace = s.refSampleTrace(r.Phases, src)
	refApplyDropout(r.Trace, f)
	if r.Trace.Dropped > 0 {
		s.faultEvent(app.Name, vm.Name, seed, attempt, chaos.SamplerDropout,
			fmt.Sprintf("dropped=%d", r.Trace.Dropped), -1)
	}
	return r, nil
}

// refApplyDropout NaNs out whole samples at the decision's per-sample rate,
// using the decision's own dropout stream so the physics and sampling
// streams are untouched.
func refApplyDropout(tr *metrics.Trace, f chaos.RunFaults) {
	if tr == nil || f.DropoutRate <= 0 {
		return
	}
	dsrc := rng.New(f.DropoutSeed)
	n := tr.Len()
	for i := 0; i < n; i++ {
		if dsrc.Float64() < f.DropoutRate {
			for id := metrics.SeriesID(0); id < metrics.NumSeries; id++ {
				tr.Series[id][i] = math.NaN()
			}
			tr.Dropped++
		}
	}
}

// refProfileAttempt is ProfileRun with fault injection: each of the Repeats
// runs can die. Failed runs are excluded from the P90/mean/correlation
// aggregation but counted in FailedRuns, with their burned cluster time in
// WastedSec. Runs whose trace is too corrupt for a usable correlation
// vector still contribute their execution time. When every repeat dies, the
// zero-run Profile (carrying the accounting fields) is returned together
// with the last *RunError. With a nil chaos plan the result is
// byte-identical to ProfileRun.
func (s *Simulator) refProfileAttempt(app workload.App, vm cloud.VMType, seed, attempt uint64) (Profile, error) {
	var (
		runs    []float64
		lats    []float64
		thr     float64
		first   RunResult
		haveRun bool
		corrSum metrics.CorrVector
		corrN   int
		failed  int
		wasted  float64
		lastErr error
	)
	for i := 0; i < s.cfg.Repeats; i++ {
		r, err := s.refRunAttempt(app, vm, seed+uint64(i)*runSeedStride, attempt)
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
		cv := metrics.Correlations(r.Trace, r.Exec)
		if cv.Valid() {
			for j := range corrSum {
				corrSum[j] += cv[j]
			}
			corrN++
		}
	}
	if len(runs) == 0 {
		return Profile{
			App: app, VM: vm, Nodes: s.cfg.Nodes,
			FailedRuns: failed, WastedSec: wasted,
		}, lastErr
	}
	if corrN > 0 {
		for j := range corrSum {
			corrSum[j] /= float64(corrN)
		}
	} else {
		for j := range corrSum {
			corrSum[j] = math.NaN()
		}
	}
	return Profile{
		App: app, VM: vm, Nodes: s.cfg.Nodes,
		Trace: first.Trace, Exec: first.Exec, Corr: corrSum,
		FailedRuns: failed, WastedSec: wasted,
	}.withTiming(s.refSummarize(vm, runs, lats, thr)), nil
}

// bitsMismatch walks got and want field by field, element by element, and
// returns the path of the first place they differ ("" when identical), with
// an explanation when the difference is structural. Floats compare by bit
// pattern, so NaN equals NaN and -0 differs from +0. Paths are built only on
// a mismatch, which keeps the walk cheap.
func bitsMismatch(got, want reflect.Value) (string, bool) {
	if !got.IsValid() || !want.IsValid() {
		return " (nil)", got.IsValid() != want.IsValid()
	}
	if got.Kind() != want.Kind() {
		return " (kind)", true
	}
	switch got.Kind() {
	case reflect.Float64, reflect.Float32:
		return "", math.Float64bits(got.Float()) != math.Float64bits(want.Float())
	case reflect.Ptr, reflect.Interface:
		if got.IsNil() || want.IsNil() {
			return " (nil)", got.IsNil() != want.IsNil()
		}
		return bitsMismatch(got.Elem(), want.Elem())
	case reflect.Slice, reflect.Array:
		if got.Kind() == reflect.Slice && got.IsNil() != want.IsNil() {
			return " (nil)", true
		}
		if got.Len() != want.Len() {
			return fmt.Sprintf(" (len %d, want %d)", got.Len(), want.Len()), true
		}
		for i := 0; i < got.Len(); i++ {
			if m, diff := bitsMismatch(got.Index(i), want.Index(i)); diff {
				return fmt.Sprintf("[%d]%s", i, m), true
			}
		}
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if m, diff := bitsMismatch(got.Field(i), want.Field(i)); diff {
				return "." + got.Type().Field(i).Name + m, true
			}
		}
	default:
		return "", !reflect.DeepEqual(got.Interface(), want.Interface())
	}
	return "", false
}

// mismatch names the first place got and want differ, or returns "".
func mismatch(got, want any) string {
	m, diff := bitsMismatch(reflect.ValueOf(got), reflect.ValueOf(want))
	if !diff {
		return ""
	}
	if m == "" {
		return " (value)"
	}
	return m
}

// referenceGrid is the configuration sweep the reference tests cover: the
// paper's protocol, a busy shared region, one and three repeats, and a
// sampling interval fine enough that most traces hit the maxTraceSamples
// downsampling.
var referenceGrid = []struct {
	name string
	cfg  Config
}{
	{"default", DefaultConfig()},
	{"interference-0.2", Config{Interference: 0.2}},
	{"repeats-1", Config{Repeats: 1}},
	{"repeats-3", Config{Repeats: 3, Interference: 0.2}},
	{"downsampled", Config{Repeats: 3, SampleSec: 0.5}},
}

// referenceVMs is every 30th VM of the 120-type catalog: four types from
// different families, slow enough on some apps that even the default
// interval hits the maxTraceSamples downsampling.
func referenceVMs() []cloud.VMType {
	var vms []cloud.VMType
	for i := 0; i < len(catalog); i += 30 {
		vms = append(vms, catalog[i])
	}
	return vms
}

// referenceFeatureSets are the feature sets ProfileFeatures is held to the
// reference on: every feature, the PCA-kept set of the default training
// seeds, the execution ratios alone (no series sampled) and each Pearson
// feature alone.
var referenceFeatureSets = func() []metrics.FeatureSet {
	sets := []metrics.FeatureSet{metrics.AllFeatures, metrics.FeaturesOf([]int{2, 5, 7, 8}), metrics.FeaturesOf([]int{5, 6, 7})}
	for i := 0; i < metrics.NumCorrelations; i++ {
		if metrics.SeriesOf(1<<i) != 0 {
			sets = append(sets, 1<<i)
		}
	}
	return sets
}()

// TestLeanRepeatsMatchReference holds ProfileRun, ProfileTimed and RunTimed
// to the pre-change reference over every app, a VM subset, three seeds and
// the whole referenceGrid: every field, every sample of the kept trace (Run's
// trace: the first repeat samples through the same path), every phase.
// ProfileFeatures of every referenceFeatureSets entry must equal the
// reference profile, and so ProfileRun's, without the trace and with NaN in
// the correlation components outside its set.
func TestLeanRepeatsMatchReference(t *testing.T) {
	apps := workload.All()
	if len(apps) != 30 {
		t.Fatalf("expected the 30 Table 3 apps, got %d", len(apps))
	}
	downsampled := 0
	for _, g := range referenceGrid {
		s := New(g.cfg)
		for _, a := range apps {
			for _, vm := range referenceVMs() {
				for _, seed := range []uint64{1, 42, 0xdeadbeef} {
					want := s.refProfileRun(a, vm, seed)
					got := s.ProfileRun(a, vm, seed)
					if m := mismatch(got, want); m != "" {
						t.Fatalf("%s %s on %s seed %d: ProfileRun differs from the reference at Profile%s",
							g.name, a.Name, vm.Name, seed, m)
					}
					// The kept trace is sized once: no series outgrew its
					// slot in the slab (a growing append would at least
					// double the capacity).
					for id, ser := range got.Trace.Series {
						if cap(ser) > len(ser)+2 {
							t.Fatalf("%s %s on %s seed %d: kept series %v has %d samples in capacity %d",
								g.name, a.Name, vm.Name, seed, metrics.SeriesID(id), len(ser), cap(ser))
						}
					}
					for _, feats := range referenceFeatureSets {
						wantFeatures := want
						wantFeatures.Trace = nil
						for i := range wantFeatures.Corr {
							if !feats.Has(i) {
								wantFeatures.Corr[i] = math.NaN()
							}
						}
						if m := mismatch(s.ProfileFeatures(a, vm, seed, feats), wantFeatures); m != "" {
							t.Fatalf("%s %s on %s seed %d: ProfileFeatures(%010b) differs from the trace-less reference at Profile%s",
								g.name, a.Name, vm.Name, seed, feats, m)
						}
					}
					if m := mismatch(s.ProfileTimed(a, vm, seed), s.refProfileTimed(a, vm, seed)); m != "" {
						t.Fatalf("%s %s on %s seed %d: ProfileTimed differs from the reference at Timing%s",
							g.name, a.Name, vm.Name, seed, m)
					}
					if m := mismatch(s.RunTimed(a, vm, seed), s.refRunTimed(a, vm, seed)); m != "" {
						t.Fatalf("%s %s on %s seed %d: RunTimed differs from the reference at RunResult%s",
							g.name, a.Name, vm.Name, seed, m)
					}
					if want.Trace.SampleSec > s.cfg.SampleSec {
						downsampled++
					}
				}
			}
		}
	}
	if downsampled == 0 {
		t.Fatal("no profile hit the maxTraceSamples downsampling; the grid misses that branch")
	}
}

// TestLeanCheckedRepeatsMatchReference holds the checked path to the
// reference under fault injection: with every fault class at 15% and 40%
// (so first repeats die, later ones survive, and dropout NaNs land in lean
// and kept traces alike) ProfileAttempt and RunAttempt return what they returned
// before, errors included.
func TestLeanCheckedRepeatsMatchReference(t *testing.T) {
	apps := workload.All()
	failedFirst := 0
	for _, rate := range []float64{0.15, 0.4} {
		for _, base := range []Config{{Repeats: 4}, {Repeats: 3, Interference: 0.2}} {
			cfg := base
			cfg.Chaos = chaos.NewPlan(9, chaos.Uniform(rate))
			s := New(cfg)
			for _, a := range apps {
				for _, vm := range referenceVMs() {
					for _, attempt := range []uint64{0, 1} {
						seed := uint64(11)
						got, gotErr := s.ProfileAttempt(a, vm, seed, attempt)
						want, wantErr := s.refProfileAttempt(a, vm, seed, attempt)
						if m := mismatch(got, want); m != "" {
							t.Fatalf("rate %v %s on %s attempt %d: ProfileAttempt differs from the reference at Profile%s",
								rate, a.Name, vm.Name, attempt, m)
						}
						if m := mismatch(gotErr, wantErr); m != "" {
							t.Fatalf("rate %v %s on %s attempt %d: ProfileAttempt error %v, reference %v",
								rate, a.Name, vm.Name, attempt, gotErr, wantErr)
						}
						r, rErr := s.RunAttempt(a, vm, seed, attempt)
						wr, wrErr := s.refRunAttempt(a, vm, seed, attempt)
						if m := mismatch(r, wr); m != "" {
							t.Fatalf("rate %v %s on %s attempt %d: RunAttempt differs from the reference at RunResult%s",
								rate, a.Name, vm.Name, attempt, m)
						}
						if m := mismatch(rErr, wrErr); m != "" {
							t.Fatalf("rate %v %s on %s attempt %d: RunAttempt error %v, reference %v",
								rate, a.Name, vm.Name, attempt, rErr, wrErr)
						}
						if rErr != nil && want.FailedRuns < cfg.Repeats && want.Trace != nil {
							failedFirst++
						}
					}
				}
			}
		}
	}
	if failedFirst == 0 {
		t.Fatal("no profile kept a later repeat's trace after its first repeat died; the grid misses that case")
	}
}
