package oracle

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/obs"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// Sentinel errors distinguishing the ways a resilient profiling campaign can
// give up. Callers match with errors.Is.
var (
	// ErrProfileFailed: every attempt died to terminal faults (preemption,
	// launch failure, OOM).
	ErrProfileFailed = errors.New("oracle: profiling failed after retries")
	// ErrQuarantined: attempts completed but every one produced corrupt
	// measurements (non-finite P90 or an unusable correlation vector).
	ErrQuarantined = errors.New("oracle: profile quarantined as corrupt")
	// ErrDeadline: the per-profile simulated-time deadline expired before a
	// clean measurement landed.
	ErrDeadline = errors.New("oracle: profiling deadline exceeded")
)

// RetryPolicy bounds how hard a Resilient meter fights for a measurement.
// The backoff clock is simulated time, not wall time: it models the
// operator's re-launch delay and is charged to the campaign's deadline.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first try.
	MaxRetries int
	// BackoffSec is the simulated delay before the first retry.
	BackoffSec float64
	// BackoffMult grows the delay per retry (exponential backoff).
	BackoffMult float64
	// DeadlineSec caps the simulated time (runs + waste + backoff) spent on
	// one profile; 0 disables the deadline.
	DeadlineSec float64
}

// DefaultRetryPolicy matches a pragmatic profiling campaign: three retries,
// 30 s initial backoff doubling each time, no deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, BackoffSec: 30, BackoffMult: 2}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.BackoffSec <= 0 {
		p.BackoffSec = d.BackoffSec
	}
	if p.BackoffMult < 1 {
		p.BackoffMult = d.BackoffMult
	}
	return p
}

// ResilienceStats summarizes one meter's fight against fault injection.
// All durations are simulated seconds.
type ResilienceStats struct {
	Profiles     int     // TryProfile campaigns started
	Attempts     int     // profile attempts, including retries
	Retries      int     // attempts beyond each campaign's first
	Failed       int     // campaigns abandoned (any sentinel)
	Quarantined  int     // campaigns abandoned with ErrQuarantined
	DeadlineHits int     // campaigns abandoned with ErrDeadline
	FailedRuns   int     // individual runs killed by faults
	WastedSec    float64 // cluster time burned by killed runs
	BackoffSec   float64 // simulated operator backoff time
}

// Resilient wraps a Meter with bounded retries, exponential backoff on a
// simulated clock, per-profile deadlines, and quarantine of corrupt
// profiles. Every attempt — retried, failed, quarantined — is charged to
// the wrapped meter's run counter, the Figure-8 accounting rule: wasted
// campaigns are training overhead too.
//
// Determinism: retries perturb only the chaos stream (attempt number), and
// the stats below are integers or integer milliseconds, so concurrent use
// over internal/parallel stays byte-identical at any worker count.
type Resilient struct {
	meter  *Meter
	policy RetryPolicy

	mu           sync.Mutex
	profiles     int
	attempts     int
	retries      int
	failed       int
	quarantined  int
	deadlineHits int
	failedRuns   int
	wastedMS     int64 // int64 milliseconds: addition order cannot change the sum
	backoffMS    int64
}

// NewResilient wraps meter with the given retry policy (zero fields take
// defaults).
func NewResilient(meter *Meter, policy RetryPolicy) *Resilient {
	return &Resilient{meter: meter, policy: policy.withDefaults()}
}

// Meter returns the wrapped ground-truth meter.
func (r *Resilient) Meter() *Meter { return r.meter }

// Policy returns the effective retry policy.
func (r *Resilient) Policy() RetryPolicy { return r.policy }

// Runs implements Service: reference-VM units charged, including wasted
// attempts.
func (r *Resilient) Runs() int { return r.meter.Runs() }

// SimConfig implements Service.
func (r *Resilient) SimConfig() sim.Config { return r.meter.SimConfig() }

// Stats returns a snapshot of the resilience counters.
func (r *Resilient) Stats() ResilienceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ResilienceStats{
		Profiles:     r.profiles,
		Attempts:     r.attempts,
		Retries:      r.retries,
		Failed:       r.failed,
		Quarantined:  r.quarantined,
		DeadlineHits: r.deadlineHits,
		FailedRuns:   r.failedRuns,
		WastedSec:    float64(r.wastedMS) / 1e3,
		BackoffSec:   float64(r.backoffMS) / 1e3,
	}
}

// corruptReason reports why a completed profile is unusable, or "" when it
// is clean: a measurement campaign can "succeed" and still deliver garbage
// (dropout-shredded traces, non-finite summaries).
func corruptReason(p sim.Profile) string {
	if math.IsNaN(p.P90Seconds) || math.IsInf(p.P90Seconds, 0) || p.P90Seconds <= 0 {
		return fmt.Sprintf("non-finite or non-positive P90 (%v)", p.P90Seconds)
	}
	if !p.Corr.Valid() {
		return "unusable correlation vector"
	}
	return ""
}

// TryProfile implements Service: measure app on vm, retrying failed or
// corrupt attempts under the policy's backoff and deadline. On success the
// returned profile carries the failure accounting of its own (final)
// attempt only; the meter-wide totals live in Stats.
//
// Observability: when the wrapped meter carries a tracer, the whole campaign
// gets a span whose duration is the simulated clock it consumed (runs +
// waste + backoff), each retry and each abandonment gets an event, and the
// Figure-8 waste totals accumulate in oracle.* counters. Every payload is
// derived from simulated time and the deterministic chaos stream, so the
// trace survives any worker schedule byte-identically.
func (r *Resilient) TryProfile(app workload.App, vm cloud.VMType) (sim.Profile, error) {
	r.mu.Lock()
	r.profiles++
	r.mu.Unlock()
	tr := r.meter.Tracer()
	campaignKey := ""
	var campaign obs.Span
	if tr.Enabled() {
		tr.Count("oracle.campaigns", 1)
		campaignKey = "campaign/app=" + app.Name + "/vm=" + vm.Name
		campaign = tr.Start(campaignKey)
	}

	clock := 0.0 // simulated seconds spent on this campaign
	backoff := r.policy.BackoffSec
	var lastErr error
	var lastProfile sim.Profile
	for attempt := 0; ; attempt++ {
		p, err := r.meter.MeasureAttempt(app, vm, uint64(attempt), sim.Want{Features: metrics.AllFeatures, Trace: true})
		r.mu.Lock()
		r.attempts++
		if attempt > 0 {
			r.retries++
		}
		r.failedRuns += p.FailedRuns
		r.wastedMS += int64(math.Round(p.WastedSec * 1e3))
		r.mu.Unlock()
		if tr.Enabled() {
			tr.Count("oracle.attempts", 1)
			tr.Count("oracle.failed_runs", int64(p.FailedRuns))
			tr.Count("oracle.wasted_ms", int64(math.Round(p.WastedSec*1e3)))
		}
		clock += spentSec(p.Runs, p.WastedSec)
		lastProfile = p

		quarantineReason := ""
		if err == nil {
			quarantineReason = corruptReason(p)
			if quarantineReason == "" {
				campaign.EndSim(clock)
				return p, nil
			}
		}
		lastErr = err

		// Decide whether another attempt is allowed.
		if attempt >= r.policy.MaxRetries {
			break
		}
		if r.policy.DeadlineSec > 0 && clock+backoff > r.policy.DeadlineSec {
			r.mu.Lock()
			r.failed++
			r.deadlineHits++
			r.mu.Unlock()
			if tr.Enabled() {
				tr.Count("oracle.failed", 1)
				tr.Count("oracle.deadline_hits", 1)
				tr.EventSim(campaignKey+"/deadline",
					fmt.Sprintf("attempts=%d", attempt+1), clock)
				campaign.EndSim(clock)
			}
			return lastProfile, fmt.Errorf("%w: %s on %s after %.0fs (%d attempts)",
				ErrDeadline, app.Name, vm.Name, clock, attempt+1)
		}
		backoffMS := int64(math.Round(backoff * 1e3))
		r.mu.Lock()
		r.backoffMS += backoffMS
		r.mu.Unlock()
		if tr.Enabled() {
			tr.Count("oracle.retries", 1)
			tr.Count("oracle.backoff_ms", backoffMS)
			reason := quarantineReason
			if reason == "" && lastErr != nil {
				reason = lastErr.Error()
			}
			tr.Event(fmt.Sprintf("%s/retry=%d", campaignKey, attempt+1),
				fmt.Sprintf("backoff_ms=%d cause=%s", backoffMS, reason))
		}
		clock += backoff
		backoff *= r.policy.BackoffMult
	}

	// Retries exhausted: classify the abandonment.
	if lastErr == nil {
		r.mu.Lock()
		r.failed++
		r.quarantined++
		r.mu.Unlock()
		if tr.Enabled() {
			tr.Count("oracle.failed", 1)
			tr.Count("oracle.quarantined", 1)
			tr.EventSim(campaignKey+"/quarantined", corruptReason(lastProfile), clock)
			campaign.EndSim(clock)
		}
		return lastProfile, fmt.Errorf("%w: %s on %s: %s",
			ErrQuarantined, app.Name, vm.Name, corruptReason(lastProfile))
	}
	r.mu.Lock()
	r.failed++
	r.mu.Unlock()
	if tr.Enabled() {
		tr.Count("oracle.failed", 1)
		tr.EventSim(campaignKey+"/failed",
			fmt.Sprintf("attempts=%d cause=%s", r.policy.MaxRetries+1, lastErr.Error()), clock)
		campaign.EndSim(clock)
	}
	return lastProfile, fmt.Errorf("%w: %s on %s (%d attempts): %v",
		ErrProfileFailed, app.Name, vm.Name, r.policy.MaxRetries+1, lastErr)
}

// TryTime implements Service by running the full TryProfile campaign: the
// checked runs, retries, quarantine checks and their accounting are exactly
// those of TryProfile, and only the timing fields are returned.
func (r *Resilient) TryTime(app workload.App, vm cloud.VMType) (sim.Timing, error) {
	p, err := r.TryProfile(app, vm)
	return p.Timing(), err
}

// spentSec is the simulated cluster time one profile attempt burned:
// completed runs plus killed-run waste.
func spentSec(runs []float64, wastedSec float64) float64 {
	t := wastedSec
	for _, sec := range runs {
		t += sec
	}
	return t
}
