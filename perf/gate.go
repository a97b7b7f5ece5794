package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"vesta/internal/loadgen"
	"vesta/internal/oracle"
	"vesta/internal/serve"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// gate runs the correctness checks of one window and returns every failure.
//
//   - Conservation: every attempted request ended in exactly one outcome
//     class, and the layers saw no more requests than were offered.
//   - Byte identity (read-only workloads): the first identityKeys distinct
//     response keys match the bytes a fresh reference server re-derives from
//     the epoch-0 snapshot with one worker and no cache.
//   - Convergence (workloads with writes): the follower's snapshot encodes
//     byte-identically to the leader's, and the leader's epoch equals the
//     number of acknowledged writes (plus at most the writes whose deadline
//     expired with their outcome unknown).
func (b *bench) gate(w workloadDef, win *window) []string {
	var problems []string
	var predicts, answered int64
	for i, o := range win.outs {
		if o.class == unrecorded {
			problems = append(problems, fmt.Sprintf("arrival %d has no recorded outcome", i))
		}
		if win.arrivals[i].kind == loadgen.KindPredict {
			predicts++
		}
		if o.class == good || o.class == late {
			answered++
		}
	}
	if w.path == inProcess {
		if got := win.after.leader.Requests - win.before.leader.Requests; got != predicts {
			problems = append(problems, fmt.Sprintf("leader counted %d requests, %d predicts offered", got, predicts))
		}
	} else if got := win.after.router.Requests - win.before.router.Requests; got > predicts {
		problems = append(problems, fmt.Sprintf("router counted %d requests, only %d predicts offered", got, predicts))
	}
	if answered == 0 {
		problems = append(problems, "no request was answered")
	}
	if hasWrites(win.arrivals) {
		if win.converged != nil {
			problems = append(problems, win.converged.Error())
		}
		if win.epoch < uint64(win.acked) || win.epoch > uint64(win.acked+win.unsure) {
			problems = append(problems, fmt.Sprintf("leader epoch %d, but %d writes acked (%d unresolved)",
				win.epoch, win.acked, win.unsure))
		}
		return problems
	}
	return append(problems, b.identity(win)...)
}

func hasWrites(sched []arrival) bool {
	for _, a := range sched {
		if a.kind != loadgen.KindPredict {
			return true
		}
	}
	return false
}

// identity re-derives the first identityKeys distinct response keys of the
// window, in arrival order, on a reference server and compares bytes.
func (b *bench) identity(win *window) []string {
	ref, err := serve.New(b.base, serve.Config{Workers: 1, NoCache: true, SimConfig: sim.Config{Nodes: 4}})
	if err != nil {
		return []string{fmt.Sprintf("reference server: %v", err)}
	}
	defer ref.Close()
	var problems []string
	seen := map[string]bool{}
	for i := range win.arrivals {
		a := &win.arrivals[i]
		k := a.key()
		if a.kind != loadgen.KindPredict || seen[k] {
			continue
		}
		got, ok := win.bodies.Load(k)
		if !ok {
			continue
		}
		seen[k] = true
		want, err := ref.PredictBytes(context.Background(), a.req)
		if err != nil {
			problems = append(problems, fmt.Sprintf("reference %s seed %d: %v", a.req.App, a.req.Seed, err))
		} else if !bytes.Equal(got.([]byte), want) {
			problems = append(problems, fmt.Sprintf("response for %s seed %d differs from the reference bytes", a.req.App, a.req.Seed))
		}
		if len(seen) == b.opts.identityKeys {
			break
		}
	}
	return problems
}

// truthRow is one application's ground truth: its P90 time on every VM and
// the fastest of them.
type truthRow struct {
	times map[string]float64
	min   float64
}

// regret is the selection quality of the fleet's answers to the evaluation
// set: the mean over answers of (truth time of the served best VM / fastest
// truth time − 1) × 100, against oracle.Build ground truth (seed 1, the
// paper's measurement protocol). NaN when nothing was answered.
func (b *bench) regret(answers map[string][]byte) (float64, error) {
	type served struct{ app, best string }
	var all []served
	keys := make([]string, 0, len(answers))
	for k := range answers {
		keys = append(keys, k)
	}
	sort.Strings(keys) // a fixed order keeps the sum bit-reproducible
	for _, k := range keys {
		var r struct {
			Target string `json:"target"`
			Best   string `json:"best"`
		}
		if err := json.Unmarshal(answers[k], &r); err != nil {
			return 0, fmt.Errorf("undecodable predict response: %w", err)
		}
		all = append(all, served{r.Target, r.Best})
	}
	apps := make([]string, len(all))
	for i, s := range all {
		apps[i] = s.app
	}
	if err := b.buildTruth(apps); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, s := range all {
		row := b.truth[s.app]
		t, ok := row.times[s.best]
		if !ok {
			return 0, fmt.Errorf("served best VM %q of %s has no ground truth", s.best, s.app)
		}
		sum += 100 * (t/row.min - 1)
	}
	return sum / float64(len(all)), nil
}

// buildTruth profiles, once per process, every application not yet in the
// ground-truth cache.
func (b *bench) buildTruth(apps []string) error {
	need := map[string]bool{}
	for _, a := range apps {
		if _, ok := b.truth[a]; !ok {
			need[a] = true
		}
	}
	if len(need) == 0 {
		return nil
	}
	names := make([]string, 0, len(need))
	for n := range need {
		names = append(names, n)
	}
	sort.Strings(names)
	profiled := make([]workload.App, len(names))
	for i, n := range names {
		a, err := workload.ByName(n)
		if err != nil {
			return err
		}
		profiled[i] = a
	}
	vms := b.base.Catalog()
	tab := oracle.Build(sim.New(sim.DefaultConfig()), profiled, vms, 1)
	for _, n := range names {
		times, err := tab.TimesFor(n)
		if err != nil {
			return err
		}
		_, fastest, err := tab.BestByTime(n)
		if err != nil {
			return err
		}
		row := truthRow{times: make(map[string]float64, len(vms)), min: fastest}
		for i, v := range vms {
			row.times[v.Name] = times[i]
		}
		b.truth[n] = row
	}
	return nil
}
