package main

import (
	"time"

	"vesta/internal/loadgen"
	"vesta/internal/workload"
)

// path is how a workload's predicts reach the fleet.
type path int

const (
	// viaRouter posts predicts over HTTP to the router, which forwards them
	// to a node: client → router → node.
	viaRouter path = iota
	// inProcess calls the leader's Server.PredictBytes directly. A client
	// limited to nproc connections would cap in-flight requests at nproc and
	// hide the admission queue; in-process calls do not.
	inProcess
)

// Deadlines from each request's due time.
const (
	predictDeadline = 250 * time.Millisecond
	writeDeadline   = time.Second
)

// workloadDef is one traffic mix. Its schedule is a pure function of the
// benchmark seed and the window length.
type workloadDef struct {
	name string
	why  string
	path path
	// meterSpans times every simulated profile in the traced window (by
	// replacing the leader's memoizing meter with a timed plain one). Only
	// workloads whose key space defeats the profile memo use it, so the
	// swap changes nothing they measure.
	meterSpans bool
	// fill asks for every distinct key of the timed window once before the
	// warm-up, so the window measures a steady-state cache rather than
	// first sightings of rare Zipf keys.
	fill bool
	load func(seed uint64, sec float64) loadgen.Config
}

// hotApps are the first 8 Table-3 applications: with 100 tenants that is at
// most 800 keys, below the 1024-entry response cache.
func hotApps() []string {
	var names []string
	for _, a := range workload.All()[:8] {
		names = append(names, a.Name)
	}
	return names
}

var predictOnly = []loadgen.MixEntry{{Kind: loadgen.KindPredict, Weight: 1}}

// workloads are the four traffic mixes, each stressing different layers.
// Rates were calibrated on a 2-CPU machine so that every request meets its
// deadline with margin and no queue runs near saturation, where latency
// amplifies the machine's own speed noise (see README.md). They are frozen:
// changing one is a benchmark change, not a tuning knob.
var workloads = []workloadDef{
	{
		name: "hot",
		why:  "Predicts via the router over HTTP at 1000 req/s on 100 tenants x 8 apps (Zipf 1.1, caches pre-filled): router, HTTP and the cache hit path do the work, core none.",
		path: viaRouter,
		fill: true,
		load: func(seed uint64, sec float64) loadgen.Config {
			return loadgen.Config{
				Seed: seed, DurationSec: sec,
				Pattern: loadgen.Pattern{Kind: loadgen.Steady, RPS: 1000},
				Mix:     predictOnly, Tenants: 100, ZipfS: 1.1, Apps: hotApps(),
			}
		},
	},
	{
		name:       "cold",
		why:        "Distinct in-process predicts at 20 req/s over 1024 tenants x 30 apps (uniform): each pays simulated profiling, the CMF solve and dispatch; cache and router do nothing.",
		path:       inProcess,
		meterSpans: true,
		load: func(seed uint64, sec float64) loadgen.Config {
			return loadgen.Config{
				Seed: seed, DurationSec: sec,
				Pattern: loadgen.Pattern{Kind: loadgen.Steady, RPS: 20},
				Mix:     predictOnly, Tenants: 1024,
			}
		},
	},
	{
		name:       "burst",
		why:        "Cold-key in-process predicts in bursts of ~8 every 0.25 s plus 4 req/s between: the admission queue, batch formation and batch-synchronous delivery set latency.",
		path:       inProcess,
		meterSpans: true,
		load: func(seed uint64, sec float64) loadgen.Config {
			return loadgen.Config{
				Seed: seed, DurationSec: sec,
				Pattern: loadgen.Pattern{Kind: loadgen.Burst, RPS: 4, Amplitude: 200, PeriodSec: 0.25, DutySec: 0.01},
				Mix:     predictOnly, Tenants: 1024,
			}
		},
	},
	{
		name: "write",
		why:  "Hot keys via the router at 30 req/s with 2% absorbs and 1% catalog reprices to the leader: each write fsyncs, ships to the follower and invalidates the cache.",
		path: viaRouter,
		load: func(seed uint64, sec float64) loadgen.Config {
			return loadgen.Config{
				Seed: seed, DurationSec: sec,
				Pattern: loadgen.Pattern{Kind: loadgen.Steady, RPS: 30},
				Mix: []loadgen.MixEntry{
					{Kind: loadgen.KindPredict, Weight: 0.97},
					{Kind: loadgen.KindAbsorb, Weight: 0.02},
					{Kind: loadgen.KindCatalog, Weight: 0.01},
				},
				Tenants: 100, ZipfS: 1.1, Apps: hotApps(),
			}
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
