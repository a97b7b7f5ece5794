package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"sync"

	"vesta/internal/chaos"
	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/obs"
)

// State-directory layout.
const (
	logName        = "wal.log"
	ckptName       = "checkpoint.ckpt"
	ckptTmpName    = ckptName + ".tmp"
	quarantineName = ckptName + ".quarantined"
)

// Checkpoint file layout: 8-byte magic, uint32 LE CRC32C of the payload,
// uint32 LE payload length, then the snapshot JSON payload.
var ckptMagic = [8]byte{'V', 'E', 'S', 'T', 'A', 'C', 'K', '1'}

const ckptHeaderSize = 16

// Typed durability errors. Callers match with errors.Is.
var (
	// ErrLogBroken is returned by Append after an earlier append failed in a
	// way that could not be rolled back: the on-disk tail is unknown, so the
	// only safe path is restart-and-recover.
	ErrLogBroken = errors.New("wal: log broken; restart to recover")
	// ErrEpochGap marks a replay whose record epochs skip ahead of the
	// recovered state: the log and checkpoint disagree in a way the torn-tail
	// rule cannot explain.
	ErrEpochGap = errors.New("wal: epoch gap between checkpoint and log")
	// ErrReplayRejected marks a CRC-valid record the snapshot refuses
	// (duplicate workload name): applying it would corrupt the consistency
	// token, so recovery fails loudly instead.
	ErrReplayRejected = errors.New("wal: replay rejected")
)

// Config tunes a Manager. Zero values take the defaults noted per field.
type Config struct {
	// Dir is the state directory (required).
	Dir string
	// FS is the filesystem seam; nil uses the real filesystem. Tests inject
	// chaos.FaultFS here to hit the crash-point matrix.
	FS chaos.FS
	// CompactBytes is the log size that triggers a compaction on Committed;
	// default 256 KiB, negative disables automatic compaction (explicit
	// Checkpoint calls still work).
	CompactBytes int64
	// Tracer receives the durability counters: wal.appends, wal.replayed,
	// wal.checkpoints and wal.quarantined are read from the Stats fields
	// tagged `trace` when the trace is serialized; wal.torn_tail counts
	// truncations (Stats counts their bytes), beside the recovery and
	// checkpoint events.
	Tracer *obs.Tracer
}

// Stats is a point-in-time view of the manager's durability counters.
// Fields tagged `trace` are the counters Config.Tracer serializes.
type Stats struct {
	// Epoch is the last durably acknowledged epoch.
	Epoch uint64 `json:"epoch"`
	// Appends counts acknowledged appends this session.
	Appends int64 `json:"appends" trace:"wal.appends"`
	// Replayed counts log records applied during recovery.
	Replayed int64 `json:"replayed" trace:"wal.replayed"`
	// TornTailBytes counts bytes truncated from the log tail at recovery.
	TornTailBytes int64 `json:"torn_tail_bytes"`
	// Checkpoints counts checkpoints written this session.
	Checkpoints int64 `json:"checkpoints" trace:"wal.checkpoints"`
	// Quarantined counts corrupt checkpoints set aside at recovery.
	Quarantined int64 `json:"quarantined" trace:"wal.quarantined"`
	// LogBytes is the current log length.
	LogBytes int64 `json:"log_bytes"`
	// Broken reports an unrecoverable append failure (see ErrLogBroken).
	Broken bool `json:"broken"`
}

// Manager owns one state directory: it recovers the snapshot at Open,
// appends absorb records durably, and compacts the log into checkpoints.
// All methods are safe for concurrent use, though the serving layer already
// serializes Append/Committed under its update lock.
type Manager struct {
	cfg Config
	fs  chaos.FS

	mu       sync.Mutex
	logFile  chaos.File
	logBytes int64
	epoch    uint64 // last durably acknowledged epoch
	broken   error
	stats    Stats
}

// Open recovers the durable state rooted at cfg.Dir: base state (the epoch-0
// snapshot from the knowledge file) + checkpoint + log replay, torn tail
// truncated. It returns the manager and the recovered snapshot to serve.
// A CRC-mismatched or undecodable checkpoint is quarantined (renamed aside)
// and the state rebuilt from base + WAL; an inconsistent log (epoch gap,
// duplicate workload, CRC-valid-but-undecodable record) fails Open.
func Open(base *core.Snapshot, cfg Config) (*Manager, *core.Snapshot, error) {
	if base == nil {
		return nil, nil, fmt.Errorf("wal: nil base snapshot")
	}
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("wal: empty state directory")
	}
	if cfg.FS == nil {
		cfg.FS = chaos.OSFS()
	}
	if cfg.CompactBytes == 0 {
		cfg.CompactBytes = 256 << 10
	}
	m := &Manager{cfg: cfg, fs: cfg.FS}
	if err := m.fs.MkdirAll(cfg.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", cfg.Dir, err)
	}
	// A leftover temp checkpoint is a crashed compaction; it was never
	// installed, so it is garbage.
	if err := m.fs.Remove(m.path(ckptTmpName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("wal: clearing stale checkpoint temp: %w", err)
	}

	snap, err := m.loadCheckpoint(base)
	if err != nil {
		return nil, nil, err
	}
	snap, err = m.replayLog(snap)
	if err != nil {
		return nil, nil, err
	}

	f, err := m.fs.Append(m.path(logName))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening log for append: %w", err)
	}
	m.logFile = f
	m.epoch = snap.Epoch()
	cfg.Tracer.Read(func() any { return m.Stats() })
	return m, snap, nil
}

func (m *Manager) path(name string) string { return filepath.Join(m.cfg.Dir, name) }

// loadCheckpoint returns the checkpointed snapshot, or base when no valid
// checkpoint exists. Corrupt checkpoints are quarantined, never deleted:
// an operator can still inspect what was on disk.
func (m *Manager) loadCheckpoint(base *core.Snapshot) (*core.Snapshot, error) {
	data, err := m.fs.ReadFile(m.path(ckptName))
	if errors.Is(err, fs.ErrNotExist) {
		return base, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: reading checkpoint: %w", err)
	}
	payload, verr := verifyCheckpoint(data)
	if verr == nil {
		snap, derr := core.DecodeSnapshot(bytes.NewReader(payload), base.Config(), base.Catalog())
		if derr == nil {
			return snap, nil
		}
		verr = derr
	}
	// Quarantine and fall back to base + WAL.
	if err := m.fs.Rename(m.path(ckptName), m.path(quarantineName)); err != nil {
		return nil, fmt.Errorf("wal: quarantining corrupt checkpoint (%v): %w", verr, err)
	}
	if err := m.fs.SyncDir(m.cfg.Dir); err != nil {
		return nil, fmt.Errorf("wal: syncing dir after quarantine: %w", err)
	}
	m.stats.Quarantined++
	if m.cfg.Tracer.Enabled() {
		m.cfg.Tracer.Event("wal/recovery", "checkpoint quarantined: "+verr.Error())
	}
	return base, nil
}

// verifyCheckpoint checks the magic, length and CRC32C of a checkpoint image
// and returns its payload.
func verifyCheckpoint(data []byte) ([]byte, error) {
	if len(data) < ckptHeaderSize {
		return nil, fmt.Errorf("wal: checkpoint too short (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:8], ckptMagic[:]) {
		return nil, fmt.Errorf("wal: bad checkpoint magic")
	}
	n := int64(binary.LittleEndian.Uint32(data[12:16]))
	if ckptHeaderSize+n != int64(len(data)) {
		return nil, fmt.Errorf("wal: checkpoint length %d does not match %d payload bytes",
			n, len(data)-ckptHeaderSize)
	}
	payload := data[ckptHeaderSize:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[8:12]) {
		return nil, fmt.Errorf("wal: checkpoint CRC mismatch")
	}
	return payload, nil
}

// replayLog applies the log's records on top of snap, truncating a torn
// tail at the first bad frame. Records at or below the snapshot's epoch were
// compacted into the checkpoint already and are skipped; a record that skips
// an epoch or re-absorbs an existing workload fails recovery.
func (m *Manager) replayLog(snap *core.Snapshot) (*core.Snapshot, error) {
	data, err := m.fs.ReadFile(m.path(logName))
	if errors.Is(err, fs.ErrNotExist) {
		return snap, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: reading log: %w", err)
	}
	recs, valid, err := scanLog(data)
	if err != nil {
		return nil, err
	}
	if torn := int64(len(data)) - valid; torn > 0 {
		if err := m.fs.Truncate(m.path(logName), valid); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		m.stats.TornTailBytes += torn
		if m.cfg.Tracer.Enabled() {
			m.cfg.Tracer.Count("wal.torn_tail", 1)
			m.cfg.Tracer.Event("wal/recovery", fmt.Sprintf("truncated %d-byte torn tail", torn))
		}
	}
	for _, rec := range recs {
		if rec.Epoch <= snap.Epoch() {
			continue // already folded into the checkpoint
		}
		if rec.Epoch != snap.Epoch()+1 {
			return nil, fmt.Errorf("%w: record epoch %d after state epoch %d",
				ErrEpochGap, rec.Epoch, snap.Epoch())
		}
		next, err := applyRecord(snap, rec)
		if err != nil {
			return nil, err
		}
		snap = next
		m.stats.Replayed++
	}
	m.logBytes = valid
	m.stats.LogBytes = valid
	return snap, nil
}

// applyRecord folds one replayed (or replicated) record into snap by its
// kind. A record the snapshot refuses — duplicate workload, invalid catalog
// update, or an unknown kind, which a current binary must never guess at —
// fails with ErrReplayRejected.
func applyRecord(snap *core.Snapshot, rec Record) (*core.Snapshot, error) {
	switch rec.Kind {
	case KindAbsorb:
		next, err := snap.Absorb(rec.Name, rec.LabelWeights, rec.PrunedVec)
		if err != nil {
			return nil, fmt.Errorf("%w: epoch %d workload %q: %v",
				ErrReplayRejected, rec.Epoch, rec.Name, err)
		}
		return next, nil
	case KindCatalog:
		if rec.Catalog == nil {
			return nil, fmt.Errorf("%w: epoch %d catalog record without update payload",
				ErrReplayRejected, rec.Epoch)
		}
		next, err := snap.AbsorbCatalog(*rec.Catalog)
		if err != nil {
			return nil, fmt.Errorf("%w: epoch %d catalog update: %v",
				ErrReplayRejected, rec.Epoch, err)
		}
		return next, nil
	default:
		return nil, fmt.Errorf("%w: epoch %d unknown record kind %q",
			ErrReplayRejected, rec.Epoch, rec.Kind)
	}
}

// ApplyRecord is applyRecord for replication consumers (internal/replicate):
// a follower replaying shipped frames must fold each record exactly as
// recovery would, including the fail-closed handling of unknown kinds.
func ApplyRecord(snap *core.Snapshot, rec Record) (*core.Snapshot, error) {
	return applyRecord(snap, rec)
}

// Append durably logs one absorb record and acknowledges it: when Append
// returns nil the record survives any crash. It must be called *before* the
// snapshot carrying the record is published (serve.Server.Absorb's ordering).
// A failed write or fsync is rolled back by truncating to the pre-append
// length, so the unacknowledged record cannot resurface after restart; if
// the rollback itself fails the log is marked broken and every further
// Append refuses with ErrLogBroken.
func (m *Manager) Append(name string, labelWeights, prunedVec []float64, epoch uint64) error {
	return m.appendRecord(Record{Name: name, LabelWeights: labelWeights, PrunedVec: prunedVec, Epoch: epoch})
}

// AppendCatalog durably logs one catalog-update record with the same
// durability and ordering contract as Append: fsynced before the snapshot
// at the new epoch is published.
func (m *Manager) AppendCatalog(up cloud.Update, epoch uint64) error {
	u := up
	return m.appendRecord(Record{Kind: KindCatalog, Catalog: &u, Epoch: epoch})
}

func (m *Manager) appendRecord(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return fmt.Errorf("%w: %v", ErrLogBroken, m.broken)
	}
	if rec.Epoch != m.epoch+1 {
		return fmt.Errorf("wal: append epoch %d, want %d", rec.Epoch, m.epoch+1)
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	if _, err := m.logFile.Write(frame); err != nil {
		return m.rollbackLocked(fmt.Errorf("wal: appending record: %w", err))
	}
	if err := m.logFile.Sync(); err != nil {
		return m.rollbackLocked(fmt.Errorf("wal: fsyncing record: %w", err))
	}
	m.logBytes += int64(len(frame))
	m.stats.LogBytes = m.logBytes
	m.epoch = rec.Epoch
	m.stats.Appends++
	return nil
}

// rollbackLocked undoes a failed append by truncating back to the last
// acknowledged length and fsyncing the truncation. If that fails too, the
// on-disk tail is unknowable and the log is marked broken.
func (m *Manager) rollbackLocked(cause error) error {
	if err := m.fs.Truncate(m.path(logName), m.logBytes); err != nil {
		m.broken = fmt.Errorf("%v; rollback truncate failed: %v", cause, err)
		m.stats.Broken = true
		return m.broken
	}
	if err := m.logFile.Sync(); err != nil {
		m.broken = fmt.Errorf("%v; rollback fsync failed: %v", cause, err)
		m.stats.Broken = true
		return m.broken
	}
	return cause
}

// Committed notifies the manager that snap (carrying the last appended
// record) has been published, giving it the chance to compact. Compaction
// failure is not an absorb failure — the record is already durable in the
// log — so callers treat a Committed error as operational noise, not as a
// reason to unpublish.
func (m *Manager) Committed(snap *core.Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.CompactBytes < 0 || m.logBytes < m.cfg.CompactBytes {
		return nil
	}
	return m.checkpointLocked(snap)
}

// Checkpoint forces a compaction: write the checksummed checkpoint
// write-temp → fsync → rename → fsync(dir), then trim the log. Used by the
// drain-then-checkpoint shutdown and by Committed past the size threshold.
func (m *Manager) Checkpoint(snap *core.Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpointLocked(snap)
}

func (m *Manager) checkpointLocked(snap *core.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("wal: checkpoint nil snapshot")
	}
	// Trimming the log is only safe when the checkpoint covers every
	// acknowledged record (the compaction invariant).
	if snap.Epoch() != m.epoch {
		return fmt.Errorf("wal: checkpoint epoch %d does not cover acknowledged epoch %d",
			snap.Epoch(), m.epoch)
	}
	return m.writeCheckpointLocked(snap)
}

// Install makes snap the durable state wholesale: checkpoint it and trim the
// log, then adopt its epoch as the acknowledged epoch. This is the commit
// half of a staged version upgrade (internal/rollout) — the candidate
// snapshot replaces checkpoint ∪ log as the recovered state, exactly as if
// every epoch between the old ack and the candidate had been appended and
// compacted. Rewinding is refused: a candidate below the acknowledged epoch
// would forget durably acknowledged state.
func (m *Manager) Install(snap *core.Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return fmt.Errorf("%w: %v", ErrLogBroken, m.broken)
	}
	if snap == nil {
		return fmt.Errorf("wal: install nil snapshot")
	}
	if snap.Epoch() < m.epoch {
		return fmt.Errorf("wal: install epoch %d would rewind acknowledged epoch %d",
			snap.Epoch(), m.epoch)
	}
	if err := m.writeCheckpointLocked(snap); err != nil {
		return err
	}
	m.epoch = snap.Epoch()
	return nil
}

// writeCheckpointLocked writes the checksummed checkpoint write-temp → fsync
// → rename → fsync(dir) and trims the log. Caller holds m.mu and has already
// established that trimming is safe (the checkpoint covers every record the
// log will lose).
func (m *Manager) writeCheckpointLocked(snap *core.Snapshot) error {
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		return fmt.Errorf("wal: encoding checkpoint: %w", err)
	}
	payload := buf.Bytes()
	header := make([]byte, ckptHeaderSize)
	copy(header[:8], ckptMagic[:])
	binary.LittleEndian.PutUint32(header[8:12], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(header[12:16], uint32(len(payload)))

	tmp := m.path(ckptTmpName)
	f, err := m.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: creating checkpoint temp: %w", err)
	}
	if _, err := f.Write(header); err == nil {
		_, err = f.Write(payload)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsyncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: closing checkpoint: %w", err)
	}
	if err := m.fs.Rename(tmp, m.path(ckptName)); err != nil {
		return fmt.Errorf("wal: installing checkpoint: %w", err)
	}
	if err := m.fs.SyncDir(m.cfg.Dir); err != nil {
		return fmt.Errorf("wal: syncing dir after checkpoint: %w", err)
	}
	// The checkpoint is durable; the log's records are now redundant. A
	// crash before (or during) this trim is harmless — replay skips records
	// at or below the checkpoint epoch.
	if err := m.fs.Truncate(m.path(logName), 0); err != nil {
		return fmt.Errorf("wal: trimming log after checkpoint: %w", err)
	}
	if err := m.logFile.Sync(); err != nil {
		return fmt.Errorf("wal: fsyncing trimmed log: %w", err)
	}
	m.logBytes = 0
	m.stats.LogBytes = 0
	m.stats.Checkpoints++
	if m.cfg.Tracer.Enabled() {
		m.cfg.Tracer.Event("wal/checkpoint", fmt.Sprintf("epoch %d, %d bytes", snap.Epoch(), len(payload)))
	}
	return nil
}

// Epoch returns the last durably acknowledged epoch.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Stats returns the current durability counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Epoch = m.epoch
	return st
}

// Close releases the log handle. Appending after Close fails.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.logFile == nil {
		return nil
	}
	err := m.logFile.Close()
	m.logFile = nil
	if m.broken == nil {
		m.broken = fmt.Errorf("wal: manager closed")
		m.stats.Broken = true
	}
	return err
}
