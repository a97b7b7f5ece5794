package rollout

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/serve"
	"vesta/internal/sim"
	"vesta/internal/wal"
	"vesta/internal/workload"
)

var (
	fixOnce  sync.Once
	fixErr   error
	fixSnaps []*core.Snapshot // epochs 0 (incumbent base) .. 3
)

// fixture trains one system and pre-computes a three-absorb chain: snaps[0]
// is the fleet's incumbent, later epochs are rollout candidates.
func fixture(t testing.TB) []*core.Snapshot {
	t.Helper()
	fixOnce.Do(func() {
		sys, err := core.New(core.Config{Seed: 1}, cloud.Catalog120())
		if err != nil {
			fixErr = err
			return
		}
		meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), 1)
		if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), meter); err != nil {
			fixErr = err
			return
		}
		base, err := sys.Snapshot()
		if err != nil {
			fixErr = err
			return
		}
		fixSnaps = []*core.Snapshot{base}
		cur := base
		for i, appName := range []string{"Spark-kmeans", "Spark-sort", "Spark-grep"} {
			app, err := workload.ByName(appName)
			if err != nil {
				fixErr = err
				return
			}
			pred, err := cur.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), uint64(100+i)))
			if err != nil {
				fixErr = err
				return
			}
			next, err := cur.Absorb(fmt.Sprintf("target-%d", i+1), pred.LabelWeights, pred.PrunedVec)
			if err != nil {
				fixErr = err
				return
			}
			fixSnaps = append(fixSnaps, next)
			cur = next
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixSnaps
}

// encodeSnap returns the snapshot's deterministic serialization — the state
// fingerprint every convergence assertion compares.
func encodeSnap(t testing.TB, sn *core.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fleet is one leader plus followers, all serving the same incumbent.
type fleet struct {
	leader    *ServeNode
	followers []Node
}

// newFleet builds an in-process fleet over the incumbent: a writable leader
// and n read-only follower replicas.
func newFleet(t testing.TB, incumbent *core.Snapshot, n int) *fleet {
	t.Helper()
	mk := func(readOnly bool) *serve.Server {
		srv, err := serve.New(incumbent, serve.Config{Workers: 1, QueueSize: 64, ReadOnly: readOnly})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	fl := &fleet{leader: NewServeNode("leader", mk(false))}
	for i := 0; i < n; i++ {
		fl.followers = append(fl.followers, NewServeNode(fmt.Sprintf("follower-%d", i), mk(true)))
	}
	return fl
}

// servers returns every fleet member's server, leader first.
func (fl *fleet) servers() []*serve.Server {
	out := []*serve.Server{fl.leader.Server()}
	for _, n := range fl.followers {
		out = append(out, n.(*ServeNode).Server())
	}
	return out
}

// assertConverged fails unless every fleet member's snapshot is
// byte-identical to want — the "exactly one version, never mixed" invariant.
func (fl *fleet) assertConverged(t testing.TB, want []byte, label string) {
	t.Helper()
	for i, srv := range fl.servers() {
		if got := encodeSnap(t, srv.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("%s: fleet member %d snapshot diverges from the expected version", label, i)
		}
		if v := srv.StagedVersion(); v != "" {
			t.Fatalf("%s: fleet member %d still staged on %q at terminal state", label, i, v)
		}
	}
}

// newJournal opens a rollout journal under dir and returns it with any
// recovered decisions.
func newJournal(t testing.TB, dir string) (*wal.Journal, [][]byte) {
	t.Helper()
	j, prior, err := wal.OpenJournal(filepath.Join(dir, "rollout.journal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, prior
}

// journalOps reopens the journal file and parses its decisions — what a
// resumed coordinator would see.
func journalOps(t testing.TB, dir string) []decision {
	t.Helper()
	j, prior, err := wal.OpenJournal(filepath.Join(dir, "rollout.journal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	out := make([]decision, len(prior))
	for i, raw := range prior {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			t.Fatalf("journal entry %d: %v", i, err)
		}
	}
	return out
}

// matrixManifest is the promotion schedule the convergence matrix drives:
// canary (1), partial (2), full (3 followers), with budgets wide enough that
// the honest fixture candidate passes — TestMatrixBudgetsHoldForCleanCandidate
// pins that — so only injected faults fail gates.
func matrixManifest() Manifest {
	return Manifest{
		Stages:           []int{1, 2},
		GoldenSeed:       7,
		GoldenRequests:   6,
		MaxDeviation:     2,
		MinBestAgreement: 0.01,
		GateTimeoutSec:   120,
	}
}
