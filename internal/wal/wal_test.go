package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vesta/internal/chaos"
	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// baseWorkloads is the source-training workload count every epoch-0 snapshot
// reports (the b of the b+e consistency token).
const baseWorkloads = 13

var (
	fixOnce  sync.Once
	fixErr   error
	fixSnaps []*core.Snapshot // epochs 0 (base) .. 3
	fixRecs  []Record         // the absorbs producing epochs 1..3
)

// fixture trains one system and pre-computes a three-absorb chain: the
// snapshots at epochs 0..3 plus the log records that produce them. Tests
// share it read-only — snapshots are immutable and records are only ever
// re-encoded, never mutated.
func fixture(t testing.TB) ([]*core.Snapshot, []Record) {
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
			target := fmt.Sprintf("target-%d", i+1)
			next, err := cur.Absorb(target, pred.LabelWeights, pred.PrunedVec)
			if err != nil {
				fixErr = err
				return
			}
			fixRecs = append(fixRecs, Record{
				Name: target, LabelWeights: pred.LabelWeights,
				PrunedVec: pred.PrunedVec, Epoch: next.Epoch(),
			})
			fixSnaps = append(fixSnaps, next)
			cur = next
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixSnaps, fixRecs
}

// encodeSnap returns the snapshot's deterministic serialization — the state
// fingerprint the recovery tests compare.
func encodeSnap(t testing.TB, sn *core.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustOpen(t testing.TB, base *core.Snapshot, cfg Config) (*Manager, *core.Snapshot) {
	t.Helper()
	m, snap, err := Open(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, snap
}

func appendRecs(t testing.TB, m *Manager, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := m.Append(r.Name, r.LabelWeights, r.PrunedVec, r.Epoch); err != nil {
			t.Fatal(err)
		}
	}
}

// appendRawToLog writes bytes straight into the log file, bypassing the
// manager — how tests plant garbage tails and forged records.
func appendRawToLog(t testing.TB, dir string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustFrame(t testing.TB, rec Record) []byte {
	t.Helper()
	frame, err := encodeFrame(rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func logSize(t testing.TB, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// --- frame codec (no trained fixture needed) ---

func syntheticRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Name:         fmt.Sprintf("w-%d", i+1),
			LabelWeights: []float64{0.25, float64(i), -1.5},
			PrunedVec:    []float64{1e-9, float64(i) * 3.25},
			Epoch:        uint64(i + 1),
		}
	}
	return recs
}

func TestFrameRoundTrip(t *testing.T) {
	recs := syntheticRecords(4)
	var data []byte
	for _, r := range recs {
		frame, err := encodeFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, frame...)
	}
	got, valid, err := scanLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if valid != int64(len(data)) {
		t.Fatalf("valid = %d, want %d", valid, len(data))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Name != recs[i].Name || r.Epoch != recs[i].Epoch {
			t.Fatalf("record %d = %+v, want %+v", i, r, recs[i])
		}
	}
}

// TestScanLogEveryPrefix is the codec half of the torn-tail rule: for every
// byte-prefix of a multi-record log, scanning yields exactly the complete
// frames inside the prefix and a valid length at the last frame boundary.
func TestScanLogEveryPrefix(t *testing.T) {
	recs := syntheticRecords(3)
	var data []byte
	boundaries := []int64{0}
	for _, r := range recs {
		frame, err := encodeFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, frame...)
		boundaries = append(boundaries, int64(len(data)))
	}
	for l := 0; l <= len(data); l++ {
		got, valid, err := scanLog(data[:l])
		if err != nil {
			t.Fatalf("prefix %d: %v", l, err)
		}
		want := 0
		for int64(l) >= boundaries[want+1] {
			want++
			if want == len(recs) {
				break
			}
		}
		if len(got) != want {
			t.Fatalf("prefix %d: %d records, want %d", l, len(got), want)
		}
		if valid != boundaries[want] {
			t.Fatalf("prefix %d: valid = %d, want %d", l, valid, boundaries[want])
		}
	}
}

func TestScanLogStopsAtFlippedCRC(t *testing.T) {
	recs := syntheticRecords(2)
	f1, f2 := mustFrame(t, recs[0]), mustFrame(t, recs[1])
	data := append(append([]byte{}, f1...), f2...)
	data[len(f1)+frameHeaderSize] ^= 0xFF // corrupt second payload
	got, valid, err := scanLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || valid != int64(len(f1)) {
		t.Fatalf("got %d records, valid %d; want 1, %d", len(got), valid, len(f1))
	}
}

// A frame whose CRC verifies but whose payload is not a Record is not a torn
// write — those bytes were durably written — so recovery must refuse rather
// than silently drop it.
func TestScanLogCRCValidBadJSONIsCorrupt(t *testing.T) {
	payload := []byte(`"a json string, not a record"`)
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderSize:], payload)
	if _, _, err := scanLog(frame); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
	}
}

func TestScanLogImplausibleLengthIsTorn(t *testing.T) {
	frame := make([]byte, frameHeaderSize+4)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(maxRecordBytes+1))
	recs, valid, err := scanLog(frame)
	if err != nil || len(recs) != 0 || valid != 0 {
		t.Fatalf("recs %d, valid %d, err %v; want torn at 0", len(recs), valid, err)
	}
}

// --- manager recovery edge cases ---

func TestOpenEmptyStateDir(t *testing.T) {
	snaps, recs := fixture(t)
	dir := t.TempDir()
	m, snap := mustOpen(t, snaps[0], Config{Dir: dir})
	if snap.Epoch() != 0 || snap.Workloads() != baseWorkloads {
		t.Fatalf("recovered (%d, %d), want (0, %d)", snap.Epoch(), snap.Workloads(), baseWorkloads)
	}
	if !bytes.Equal(encodeSnap(t, snap), encodeSnap(t, snaps[0])) {
		t.Fatal("empty-dir recovery diverges from base")
	}
	st := m.Stats()
	if st.Replayed != 0 || st.TornTailBytes != 0 || st.Quarantined != 0 || st.LogBytes != 0 {
		t.Fatalf("stats = %+v, want all-zero recovery", st)
	}
	// The fresh dir is immediately appendable.
	appendRecs(t, m, recs[:1])
	if m.Epoch() != 1 {
		t.Fatalf("epoch after first append = %d", m.Epoch())
	}
}

func TestRecoveryWALOnly(t *testing.T) {
	snaps, recs := fixture(t)
	dir := t.TempDir()
	m1, _ := mustOpen(t, snaps[0], Config{Dir: dir})
	appendRecs(t, m1, recs[:2])
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, snap := mustOpen(t, snaps[0], Config{Dir: dir})
	st := m2.Stats()
	if snap.Epoch() != 2 || st.Replayed != 2 || st.Checkpoints != 0 {
		t.Fatalf("recovered epoch %d, stats %+v", snap.Epoch(), st)
	}
	if snap.Workloads() != baseWorkloads+2 {
		t.Fatalf("workloads = %d, want %d", snap.Workloads(), baseWorkloads+2)
	}
	if !bytes.Equal(encodeSnap(t, snap), encodeSnap(t, snaps[2])) {
		t.Fatal("WAL-only recovery diverges from the pre-crash snapshot")
	}
}

func TestRecoveryCheckpointOnly(t *testing.T) {
	snaps, recs := fixture(t)
	dir := t.TempDir()
	m1, _ := mustOpen(t, snaps[0], Config{Dir: dir})
	appendRecs(t, m1, recs[:2])
	if err := m1.Checkpoint(snaps[2]); err != nil {
		t.Fatal(err)
	}
	if st := m1.Stats(); st.Checkpoints != 1 || st.LogBytes != 0 {
		t.Fatalf("post-checkpoint stats = %+v", st)
	}
	if n := logSize(t, dir); n != 0 {
		t.Fatalf("log not trimmed after checkpoint: %d bytes", n)
	}
	m1.Close()

	m2, snap := mustOpen(t, snaps[0], Config{Dir: dir})
	st := m2.Stats()
	if snap.Epoch() != 2 || st.Replayed != 0 {
		t.Fatalf("recovered epoch %d, replayed %d; want 2, 0", snap.Epoch(), st.Replayed)
	}
	if !bytes.Equal(encodeSnap(t, snap), encodeSnap(t, snaps[2])) {
		t.Fatal("checkpoint-only recovery diverges from the checkpointed snapshot")
	}
	// And the recovered manager keeps absorbing where it left off.
	appendRecs(t, m2, recs[2:3])
	if m2.Epoch() != 3 {
		t.Fatalf("epoch after post-recovery append = %d", m2.Epoch())
	}
}

func TestRecoveryCheckpointPlusLogTail(t *testing.T) {
	snaps, recs := fixture(t)
	dir := t.TempDir()
	m1, _ := mustOpen(t, snaps[0], Config{Dir: dir})
	appendRecs(t, m1, recs[:2])
	if err := m1.Checkpoint(snaps[2]); err != nil {
		t.Fatal(err)
	}
	appendRecs(t, m1, recs[2:3])
	m1.Close()

	m2, snap := mustOpen(t, snaps[0], Config{Dir: dir})
	if snap.Epoch() != 3 || m2.Stats().Replayed != 1 {
		t.Fatalf("recovered epoch %d, replayed %d; want 3, 1", snap.Epoch(), m2.Stats().Replayed)
	}
	if !bytes.Equal(encodeSnap(t, snap), encodeSnap(t, snaps[3])) {
		t.Fatal("checkpoint+tail recovery diverges")
	}
}

func TestCorruptCheckpointQuarantined(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		crcOf   func(p []byte) uint32
	}{
		{"crc-mismatch", []byte("garbage payload"), func(p []byte) uint32 {
			return crc32.Checksum(p, castagnoli) + 1
		}},
		{"crc-valid-undecodable", []byte("not a snapshot"), func(p []byte) uint32 {
			return crc32.Checksum(p, castagnoli)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snaps, recs := fixture(t)
			dir := t.TempDir()
			m1, _ := mustOpen(t, snaps[0], Config{Dir: dir})
			appendRecs(t, m1, recs)
			m1.Close()
			// Plant a corrupt checkpoint next to the intact log.
			ckpt := make([]byte, ckptHeaderSize+len(tc.payload))
			copy(ckpt[:8], ckptMagic[:])
			binary.LittleEndian.PutUint32(ckpt[8:12], tc.crcOf(tc.payload))
			binary.LittleEndian.PutUint32(ckpt[12:16], uint32(len(tc.payload)))
			copy(ckpt[ckptHeaderSize:], tc.payload)
			if err := os.WriteFile(filepath.Join(dir, ckptName), ckpt, 0o644); err != nil {
				t.Fatal(err)
			}

			m2, snap := mustOpen(t, snaps[0], Config{Dir: dir})
			st := m2.Stats()
			if st.Quarantined != 1 {
				t.Fatalf("quarantined = %d, want 1", st.Quarantined)
			}
			if snap.Epoch() != 3 || st.Replayed != 3 {
				t.Fatalf("rebuild from base+WAL gave epoch %d, replayed %d", snap.Epoch(), st.Replayed)
			}
			if !bytes.Equal(encodeSnap(t, snap), encodeSnap(t, snaps[3])) {
				t.Fatal("rebuilt state diverges from the pre-crash snapshot")
			}
			// Quarantine preserves the evidence and clears the live name.
			qdata, err := os.ReadFile(filepath.Join(dir, quarantineName))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(qdata, ckpt) {
				t.Fatal("quarantined bytes differ from the corrupt checkpoint")
			}
			if _, err := os.Stat(filepath.Join(dir, ckptName)); !os.IsNotExist(err) {
				t.Fatalf("corrupt checkpoint still installed: %v", err)
			}
			// A fresh checkpoint over the rebuilt state works and wins the next
			// recovery.
			if err := m2.Checkpoint(snap); err != nil {
				t.Fatal(err)
			}
			m2.Close()
			m3, snap3 := mustOpen(t, snaps[0], Config{Dir: dir})
			if snap3.Epoch() != 3 || m3.Stats().Replayed != 0 {
				t.Fatalf("post-repair recovery: epoch %d, replayed %d", snap3.Epoch(), m3.Stats().Replayed)
			}
		})
	}
}

func TestDuplicateWorkloadRejectedOnReplay(t *testing.T) {
	snaps, recs := fixture(t)
	dir := t.TempDir()
	m1, _ := mustOpen(t, snaps[0], Config{Dir: dir})
	appendRecs(t, m1, recs[:1])
	m1.Close()
	// Forge a CRC-valid record re-absorbing the same workload at the next
	// epoch: framing is fine, semantics are not.
	dup := recs[0]
	dup.Epoch = 2
	appendRawToLog(t, dir, mustFrame(t, dup))

	_, _, err := Open(snaps[0], Config{Dir: dir})
	if !errors.Is(err, ErrReplayRejected) {
		t.Fatalf("err = %v, want ErrReplayRejected", err)
	}
}

func TestEpochGapRejectedOnReplay(t *testing.T) {
	snaps, recs := fixture(t)
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A log that starts at epoch 2 with no checkpoint covering epoch 1.
	r := recs[1]
	appendRawToLog(t, dir, mustFrame(t, r))
	_, _, err := Open(snaps[0], Config{Dir: dir})
	if !errors.Is(err, ErrEpochGap) {
		t.Fatalf("err = %v, want ErrEpochGap", err)
	}
}

func TestTornTailTruncatedAndLogStaysAppendable(t *testing.T) {
	snaps, recs := fixture(t)
	dir := t.TempDir()
	m1, _ := mustOpen(t, snaps[0], Config{Dir: dir})
	appendRecs(t, m1, recs[:2])
	m1.Close()
	intact := logSize(t, dir)
	appendRawToLog(t, dir, []byte{0x13, 0x37, 0x00})

	m2, snap := mustOpen(t, snaps[0], Config{Dir: dir})
	st := m2.Stats()
	if snap.Epoch() != 2 || st.TornTailBytes != 3 {
		t.Fatalf("epoch %d, torn %d; want 2, 3", snap.Epoch(), st.TornTailBytes)
	}
	if n := logSize(t, dir); n != intact {
		t.Fatalf("log size after truncate = %d, want %d", n, intact)
	}
	appendRecs(t, m2, recs[2:3]) // appends land after the truncated tail
	m2.Close()

	m3, snap3 := mustOpen(t, snaps[0], Config{Dir: dir})
	defer m3.Close()
	if snap3.Epoch() != 3 || m3.Stats().TornTailBytes != 0 {
		t.Fatalf("final recovery: epoch %d, torn %d; want 3, 0", snap3.Epoch(), m3.Stats().TornTailBytes)
	}
	if !bytes.Equal(encodeSnap(t, snap3), encodeSnap(t, snaps[3])) {
		t.Fatal("state after torn-tail append diverges")
	}
}

func TestAppendEpochGuard(t *testing.T) {
	snaps, recs := fixture(t)
	m, _ := mustOpen(t, snaps[0], Config{Dir: t.TempDir()})
	r := recs[1] // epoch 2 against a manager at epoch 0
	if err := m.Append(r.Name, r.LabelWeights, r.PrunedVec, r.Epoch); err == nil {
		t.Fatal("epoch-skipping append accepted")
	}
	if m.Epoch() != 0 {
		t.Fatalf("epoch moved to %d on rejected append", m.Epoch())
	}
}

func TestCheckpointEpochGuard(t *testing.T) {
	snaps, recs := fixture(t)
	m, _ := mustOpen(t, snaps[0], Config{Dir: t.TempDir()})
	appendRecs(t, m, recs[:1])
	// A checkpoint that does not cover the acknowledged epoch would license
	// trimming records it does not contain.
	if err := m.Checkpoint(snaps[0]); err == nil {
		t.Fatal("stale checkpoint accepted")
	}
	if err := m.Checkpoint(snaps[2]); err == nil {
		t.Fatal("future checkpoint accepted")
	}
	if err := m.Checkpoint(snaps[1]); err != nil {
		t.Fatalf("covering checkpoint rejected: %v", err)
	}
}

func TestCommittedCompactsPastThreshold(t *testing.T) {
	snaps, recs := fixture(t)
	dir := t.TempDir()
	m, _ := mustOpen(t, snaps[0], Config{Dir: dir, CompactBytes: 1})
	appendRecs(t, m, recs[:1])
	if err := m.Committed(snaps[1]); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Checkpoints != 1 || st.LogBytes != 0 {
		t.Fatalf("stats after threshold compaction = %+v", st)
	}
}

func TestCommittedNegativeThresholdNeverCompacts(t *testing.T) {
	snaps, recs := fixture(t)
	m, _ := mustOpen(t, snaps[0], Config{Dir: t.TempDir(), CompactBytes: -1})
	appendRecs(t, m, recs[:1])
	if err := m.Committed(snaps[1]); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Checkpoints != 0 || st.LogBytes == 0 {
		t.Fatalf("stats = %+v, want no compaction", st)
	}
}

func TestOpenClearsStaleCheckpointTemp(t *testing.T) {
	snaps, _ := fixture(t)
	dir := t.TempDir()
	tmp := filepath.Join(dir, ckptTmpName)
	if err := os.WriteFile(tmp, []byte("half-written checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, _ := mustOpen(t, snaps[0], Config{Dir: dir})
	defer m.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived Open: %v", err)
	}
}

func TestAppendAfterCloseRefuses(t *testing.T) {
	snaps, recs := fixture(t)
	m, _ := mustOpen(t, snaps[0], Config{Dir: t.TempDir()})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if err := m.Append(r.Name, r.LabelWeights, r.PrunedVec, r.Epoch); !errors.Is(err, ErrLogBroken) {
		t.Fatalf("err = %v, want ErrLogBroken", err)
	}
}

// TestAppendFailedSyncRollsBack covers the ack invariant from the other side:
// an append whose fsync fails must not resurface after restart.
func TestAppendFailedSyncRollsBack(t *testing.T) {
	snaps, recs := fixture(t)
	dir := t.TempDir()
	ffs := chaos.NewFaultFS(chaos.OSFS(), chaos.FSPlan{FailSync: 1})
	m, _ := mustOpen(t, snaps[0], Config{Dir: dir, FS: ffs})
	r := recs[0]
	if err := m.Append(r.Name, r.LabelWeights, r.PrunedVec, r.Epoch); err == nil {
		t.Fatal("append with failed fsync acknowledged")
	} else if errors.Is(err, ErrLogBroken) {
		t.Fatalf("rollback should have saved the log: %v", err)
	}
	if m.Epoch() != 0 {
		t.Fatalf("epoch after failed append = %d, want 0", m.Epoch())
	}
	// The rollback truncated the unacknowledged bytes; the same absorb can be
	// retried on the same handle.
	if err := m.Append(r.Name, r.LabelWeights, r.PrunedVec, r.Epoch); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, snap := mustOpen(t, snaps[0], Config{Dir: dir})
	defer m2.Close()
	if snap.Epoch() != 1 || m2.Stats().Replayed != 1 {
		t.Fatalf("recovered epoch %d, replayed %d; want 1, 1", snap.Epoch(), m2.Stats().Replayed)
	}
	if !bytes.Equal(encodeSnap(t, snap), encodeSnap(t, snaps[1])) {
		t.Fatal("recovered state diverges after rollback + retry")
	}
}

func TestOpenValidatesArguments(t *testing.T) {
	snaps, _ := fixture(t)
	if _, _, err := Open(nil, Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, _, err := Open(snaps[0], Config{}); err == nil {
		t.Fatal("empty dir accepted")
	}
}
