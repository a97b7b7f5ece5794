package wal

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vesta/internal/chaos"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

var (
	extOnce  sync.Once
	extErr   error
	extSnaps []*core.Snapshot
	extRecs  []Record
)

// extendedChain grows the shared fixture chain to ten absorbs — long enough
// that an appender and a compactor genuinely overlap — and returns the
// snapshots at epochs 0..10 plus the records producing them.
func extendedChain(t testing.TB) ([]*core.Snapshot, []Record) {
	t.Helper()
	snaps, recs := fixture(t)
	extOnce.Do(func() {
		extSnaps = append(extSnaps, snaps...)
		extRecs = append(extRecs, recs...)
		apps := []string{"Spark-kmeans", "Spark-sort", "Spark-grep"}
		cur := snaps[len(snaps)-1]
		for i := len(recs); len(extRecs) < 10; i++ {
			app, err := workload.ByName(apps[i%len(apps)])
			if err != nil {
				extErr = err
				return
			}
			pred, err := cur.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), uint64(200+i)))
			if err != nil {
				extErr = err
				return
			}
			target := fmt.Sprintf("race-%d", i+1)
			next, err := cur.Absorb(target, pred.LabelWeights, pred.PrunedVec)
			if err != nil {
				extErr = err
				return
			}
			extRecs = append(extRecs, Record{
				Name: target, LabelWeights: pred.LabelWeights,
				PrunedVec: pred.PrunedVec, Epoch: next.Epoch(),
			})
			extSnaps = append(extSnaps, next)
			cur = next
		}
	})
	if extErr != nil {
		t.Fatal(extErr)
	}
	return extSnaps, extRecs
}

// TestCompactionRacesConcurrentAppends drives an appender, a compactor and
// stats readers against one Manager under the race detector. CompactBytes 1
// makes every Committed call attempt a checkpoint, so compactions interleave
// with appends the whole run. A Committed call that lost the race (its
// snapshot no longer covers the acknowledged epoch) must fail with the
// compaction-invariant error, never trim acknowledged records.
func TestCompactionRacesConcurrentAppends(t *testing.T) {
	snaps, recs := extendedChain(t)
	m, _ := mustOpen(t, snaps[0], Config{Dir: t.TempDir(), CompactBytes: 1})

	done := make(chan struct{})
	committable := make(chan *core.Snapshot, len(recs))
	var committed, stale int
	var wg, readerWG sync.WaitGroup
	wg.Add(2)
	readerWG.Add(1)
	go func() { // appender: the single writer the epoch guard demands
		defer wg.Done()
		defer close(committable)
		for i, r := range recs {
			if err := m.Append(r.Name, r.LabelWeights, r.PrunedVec, r.Epoch); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			committable <- snaps[i+1]
		}
	}()
	go func() { // compactor: races the appender on every publish
		defer wg.Done()
		for snap := range committable {
			err := m.Committed(snap)
			switch {
			case err == nil:
				committed++
			case strings.Contains(err.Error(), "does not cover"):
				stale++ // the appender moved on; the checkpoint was refused
			default:
				t.Errorf("committed(epoch %d): %v", snap.Epoch(), err)
			}
		}
	}()
	go func() { // readers: epoch and stats must be safe mid-race
		defer readerWG.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = m.Epoch()
				_ = m.Stats()
			}
		}
	}()
	wg.Wait()
	close(done)
	readerWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The final snapshot always commits: the appender is done, so its epoch
	// matches the acknowledged one.
	if committed == 0 {
		t.Fatal("no Committed call ever compacted")
	}
	st := m.Stats()
	if st.Epoch != uint64(len(recs)) || st.Appends != int64(len(recs)) {
		t.Fatalf("stats after race: %+v, want epoch/appends %d", st, len(recs))
	}
	if st.Broken {
		t.Fatal("log broken by a lost compaction race")
	}
	if st.Checkpoints != int64(committed) {
		t.Fatalf("%d checkpoints recorded, %d Committed calls compacted", st.Checkpoints, committed)
	}
	t.Logf("race outcome: %d compactions, %d stale refusals", committed, stale)
	m.Close()

	// Whatever interleaving ran, restart recovers the full chain.
	_, snap := mustOpen(t, snaps[0], Config{Dir: m.cfg.Dir})
	if snap.Epoch() != uint64(len(recs)) {
		t.Fatalf("recovered epoch %d, want %d", snap.Epoch(), len(recs))
	}
	if !bytes.Equal(encodeSnap(t, snap), encodeSnap(t, snaps[len(recs)])) {
		t.Fatal("recovered state diverges after the race")
	}
}

// TestCrashMidCompactionUnderRacingAppends combines the two failure axes: a
// FaultFS crash point fires somewhere inside the append/compact interleaving
// (mid-compaction fsyncs, the checkpoint rename, the dir sync, and a sweep of
// power-cut positions), while appends race compactions exactly as above.
// Wherever the fault lands, a clean restart must recover exactly the epochs
// the appender saw acknowledged — never more, never fewer.
func TestCrashMidCompactionUnderRacingAppends(t *testing.T) {
	snaps, recs := extendedChain(t)
	refs := make([][]byte, len(snaps))
	for i, sn := range snaps {
		refs[i] = encodeSnap(t, sn)
	}

	// Counting pass: the same workload single-threaded and fault-free, to
	// learn how many syncs/renames/dir-syncs/bytes one run performs. The
	// concurrent runs do at most this much work, so aiming one fault at each
	// op index covers every crash point some schedule can reach.
	probe := chaos.NewFaultFS(chaos.OSFS(), chaos.FSPlan{})
	mc, _, err := Open(snaps[0], Config{Dir: t.TempDir(), FS: probe, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := mc.Append(r.Name, r.LabelWeights, r.PrunedVec, r.Epoch); err != nil {
			t.Fatal(err)
		}
		if err := mc.Committed(snaps[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	mc.Close()
	ops := probe.Ops()
	if ops.Syncs == 0 || ops.Renames == 0 || ops.SyncDirs == 0 || ops.WriteBytes == 0 {
		t.Fatalf("counting pass saw no ops: %+v", ops)
	}

	type plan struct {
		name string
		p    chaos.FSPlan
	}
	var plans []plan
	for i := 1; i <= ops.Syncs; i += 3 {
		plans = append(plans, plan{fmt.Sprintf("fail-sync-%d", i), chaos.FSPlan{FailSync: i}})
	}
	for i := 1; i <= ops.Renames; i += 2 {
		plans = append(plans, plan{fmt.Sprintf("fail-rename-%d", i), chaos.FSPlan{FailRename: i}})
	}
	for i := 1; i <= ops.SyncDirs; i += 2 {
		plans = append(plans, plan{fmt.Sprintf("fail-syncdir-%d", i), chaos.FSPlan{FailSyncDir: i}})
	}
	stride := ops.WriteBytes / 11
	if stride < 1 {
		stride = 1
	}
	for c := int64(1); c <= ops.WriteBytes; c += stride {
		plans = append(plans, plan{fmt.Sprintf("power-cut-%d", c), chaos.FSPlan{CutAtByte: c}})
	}

	for _, pl := range plans {
		t.Run(pl.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := chaos.NewFaultFS(chaos.OSFS(), pl.p)
			m, _, err := Open(snaps[0], Config{Dir: dir, FS: ffs, CompactBytes: 1})
			if err != nil {
				t.Fatalf("open under plan: %v", err)
			}

			committable := make(chan *core.Snapshot, len(recs))
			var acked uint64
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // appender: retry once past a one-shot fault, stop on a broken log
				defer wg.Done()
				defer close(committable)
				for i, r := range recs {
					var aerr error
					for attempt := 0; attempt < 2; attempt++ {
						if aerr = m.Append(r.Name, r.LabelWeights, r.PrunedVec, r.Epoch); aerr == nil {
							break
						}
						if errors.Is(aerr, ErrLogBroken) {
							return
						}
					}
					if aerr != nil {
						return
					}
					acked++
					committable <- snaps[i+1]
				}
			}()
			go func() { // compactor: compaction failure is operational noise, not data loss
				defer wg.Done()
				for snap := range committable {
					_ = m.Committed(snap)
				}
			}()
			wg.Wait()
			m.Close()

			// Clean restart: every acknowledged record survives. Under a
			// power cut one lost-ack record is admissible — the compactor's
			// tmp write can trip the cut between the appender's frame write
			// and its fsync, leaving a complete, replayable frame whose ack
			// never returned — but never more than one, and never a torn or
			// fabricated state.
			maxEpoch := acked
			if pl.p.CutAtByte > 0 && acked < uint64(len(recs)) {
				maxEpoch = acked + 1
			}
			m2, snap, err := Open(snaps[0], Config{Dir: dir})
			if err != nil {
				t.Fatalf("recovery after %q (acked %d): %v", pl.name, acked, err)
			}
			defer m2.Close()
			if snap.Epoch() < acked || snap.Epoch() > maxEpoch {
				t.Fatalf("recovered epoch %d, want %d acked (at most %d)", snap.Epoch(), acked, maxEpoch)
			}
			if !bytes.Equal(encodeSnap(t, snap), refs[snap.Epoch()]) {
				t.Fatalf("recovered state diverges from epoch %d", snap.Epoch())
			}
			// And the survivor still checkpoints cleanly.
			if err := m2.Checkpoint(snap); err != nil {
				t.Fatalf("post-recovery checkpoint: %v", err)
			}
		})
	}
}
