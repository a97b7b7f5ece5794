package sim

// Fault-aware execution paths. The unchecked paths (Run, RunTimed,
// ProfileRun) remain infallible ground-truth physics; the checked paths
// below consult Config.Chaos and can fail with a typed *RunError. Fault
// decisions come from a chaos stream that is completely separate from the
// physics stream, so:
//
//   - with a nil (or all-zero) plan the checked paths are byte-identical to
//     the unchecked ones, and
//   - a run that fails and is retried (attempt+1) re-rolls only the fault
//     dice — if the retry survives, it measures exactly what the original
//     run would have measured.

import (
	"fmt"
	"math"

	"vesta/internal/chaos"
	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/obs"
	"vesta/internal/rng"
	"vesta/internal/workload"
)

// RunError reports a fault-injected run failure. WastedSec is the simulated
// cluster time burned before the run died (billed but useless).
type RunError struct {
	Fault     chaos.Fault
	App       string
	VM        string
	WastedSec float64
}

// Error implements the error interface.
func (e *RunError) Error() string {
	return fmt.Sprintf("sim: run of %s on %s killed by %s after %.1fs",
		e.App, e.VM, e.Fault, e.WastedSec)
}

// oomPressureGate: the chaos plan draws OOM candidates at the configured
// rate, but only runs whose working set actually crowds memory can die of
// it. 0.8 means "within 25% of spilling".
const oomPressureGate = 0.8

// RunChecked is Run with fault injection: identical physics, but the run
// can die. On failure the partial RunResult is still returned (its trace is
// marked Partial) alongside a *RunError.
func (s *Simulator) RunChecked(app workload.App, vm cloud.VMType, seed uint64) (RunResult, error) {
	return s.RunAttempt(app, vm, seed, 0)
}

// RunAttempt is RunChecked for a specific retry attempt. Attempts re-roll
// the fault decision without touching the physics stream.
func (s *Simulator) RunAttempt(app workload.App, vm cloud.VMType, seed, attempt uint64) (RunResult, error) {
	f := s.cfg.Chaos.ForRun(app.Name, vm.Name, seed, attempt)
	pl := s.planRun(app, vm, nil)
	return s.attempt(app, vm, seed, attempt, f, &pl, pl.phases, new(metrics.Trace), metrics.AllSeries)
}

// attempt runs one execution of the plan pl under the fault decision f: the
// noise, stragglers and truncation rewrite phases (the plan's phases or a
// copy of them, see repeat), then the trace of the series in keep is sampled
// into tr (see sampleTrace) unless the cluster never launched.
func (s *Simulator) attempt(app workload.App, vm cloud.VMType, seed, attempt uint64, f chaos.RunFaults,
	pl *runPlan, phases []Phase, tr *metrics.Trace, keep metrics.SeriesSet) (RunResult, error) {
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

	r, src := s.repeat(app, vm, seed, pl, phases)

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
		r.Trace = s.sampleTrace(tr, r.Phases, &src, keep)
		r.Trace.Partial = true
		applyDropout(r.Trace, f)
		s.faultEvent(app.Name, vm.Name, seed, attempt, kill,
			fmt.Sprintf("frac=%s", obs.FormatValue(frac)), r.Seconds)
		return r, &RunError{
			Fault: kill, App: app.Name, VM: vm.Name, WastedSec: r.Seconds,
		}
	}

	r.Trace = s.sampleTrace(tr, r.Phases, &src, keep)
	applyDropout(r.Trace, f)
	if r.Trace.Dropped > 0 {
		s.faultEvent(app.Name, vm.Name, seed, attempt, chaos.SamplerDropout,
			fmt.Sprintf("dropped=%d", r.Trace.Dropped), -1)
	}
	return r, nil
}

// faultEvent emits one injected-fault trace event plus a per-class counter.
// The key embeds everything the chaos decision depends on, so the record is
// a pure function of the plan and survives any execution schedule.
func (s *Simulator) faultEvent(app, vm string, seed, attempt uint64, f chaos.Fault, detail string, wastedSec float64) {
	if !s.cfg.Tracer.Enabled() {
		return
	}
	key := fmt.Sprintf("sim/fault/app=%s/vm=%s/seed=%d/attempt=%d", app, vm, seed, attempt)
	msg := f.String()
	if detail != "" {
		msg += " " + detail
	}
	if wastedSec >= 0 {
		s.cfg.Tracer.EventSim(key, msg, wastedSec)
	} else {
		s.cfg.Tracer.Event(key, msg)
	}
	s.cfg.Tracer.Count("sim.faults."+f.String(), 1)
}

// truncateRun cuts the run after frac of its phase time: completed phases
// are kept, the phase straddling the cut is split, the rest are dropped.
// Seconds and CostUSD are recomputed for the billed partial execution.
func truncateRun(r *RunResult, frac float64) {
	physTotal := 0.0
	for _, ph := range r.Phases {
		physTotal += ph.Seconds
	}
	overhead := r.Seconds - physTotal // launch/plan overhead, noise-scaled
	cutoff := physTotal * frac
	elapsed := 0.0
	kept := r.Phases[:0]
	for _, ph := range r.Phases {
		if elapsed+ph.Seconds <= cutoff {
			kept = append(kept, ph)
			elapsed += ph.Seconds
			continue
		}
		remain := cutoff - elapsed
		if remain > 1e-9 {
			ph.Seconds = remain
			kept = append(kept, ph)
			elapsed += remain
		}
		break
	}
	r.Phases = kept
	r.Seconds = overhead + elapsed
	r.CostUSD = r.Seconds / 3600 * r.VM.PriceHour * float64(r.Nodes)
}

// applyDropout NaNs out whole samples at the decision's per-sample rate,
// using the decision's own dropout stream so the physics and sampling
// streams are untouched. Absent (nil) series are skipped.
func applyDropout(tr *metrics.Trace, f chaos.RunFaults) {
	if tr == nil || f.DropoutRate <= 0 {
		return
	}
	dsrc := rng.New(f.DropoutSeed)
	n := tr.Len()
	for i := 0; i < n; i++ {
		if dsrc.Float64() < f.DropoutRate {
			for id := metrics.SeriesID(0); id < metrics.NumSeries; id++ {
				if tr.Series[id] != nil {
					tr.Series[id][i] = math.NaN()
				}
			}
			tr.Dropped++
		}
	}
}

// ProfileAttempt is ProfileRun with fault injection: each of the Repeats
// runs can die. Failed runs are excluded from the P90/mean/correlation
// aggregation but counted in FailedRuns, with their burned cluster time in
// WastedSec. Runs whose trace is too corrupt for a usable correlation
// vector still contribute their execution time. When every repeat dies, the
// zero-run Profile (carrying the accounting fields) is returned together
// with the last *RunError. With a nil chaos plan the result is
// byte-identical to ProfileRun.
func (s *Simulator) ProfileAttempt(app workload.App, vm cloud.VMType, seed, attempt uint64) (Profile, error) {
	return s.profile(app, vm, seed, attempt, s.cfg.Chaos, metrics.AllFeatures, true)
}
