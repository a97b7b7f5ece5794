// Package replicate turns a single durable `vesta serve` node into a
// replicated serving fleet: a leader that owns absorbs and streams CRC32C-
// framed WAL records to followers, followers that replay those frames into
// their own snapshots, and a router (router.go) that consistent-hashes
// predict traffic across healthy followers and fails over when one dies.
//
// Replication protocol (DESIGN.md §13):
//
//   - The wire format IS the WAL format. The leader interposes on the serve
//     layer's write-ahead hook: every absorb is first made durable by the
//     inner WAL (when one is configured), then retained in an in-memory tail
//     of wal.Record frames. A follower polls with its consistency token —
//     the epoch of its published snapshot — and receives either the framed
//     records covering (token, leader ack], or, when it has fallen behind
//     the leader's retained horizon, a full checksummed snapshot bootstrap.
//   - The token ordering invariant: a follower's (epoch, workloads) token is
//     verifiably ≤ the leader's last acked epoch at every sync. Any
//     violation — follower ahead of leader, a record that skips an epoch, a
//     frame that fails its CRC, a bootstrap whose workload count disagrees
//     with base+epoch — is divergence, and the follower fails closed
//     (ErrDiverged / wal.ErrEpochGap semantics) instead of guessing, exactly
//     like WAL replay refuses an inconsistent log.
//   - Followers are read replicas: their serve.Server runs with
//     Config.ReadOnly so POST /absorb answers 403, and every state change
//     arrives through the replication stream. Durability lives at the
//     leader; a restarted follower re-syncs from the leader's checkpoint +
//     tail.
//
// Determinism: replayed snapshots are rebuilt by the same core.Snapshot
// codec and Absorb paths the crash-recovery matrix proves byte-identical, so
// once a follower's token equals the leader's ack, its predict responses are
// byte-for-byte the leader's at any worker count.
package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/obs"
	"vesta/internal/serve"
	"vesta/internal/wal"
)

// Typed replication errors. Callers match with errors.Is.
var (
	// ErrFollowerAhead is returned by the leader when a follower's token is
	// beyond the leader's last acked epoch: the follower has state the
	// leader never acknowledged, which is divergence, not lag.
	ErrFollowerAhead = errors.New("replicate: follower token ahead of leader ack")
	// ErrBadStream marks a replication batch that fails verification: a
	// frame whose CRC32C mismatches, a partial frame, an undecodable
	// bootstrap. Nothing tears an in-flight batch, so the follower fails
	// closed instead of truncating like crash recovery would.
	ErrBadStream = errors.New("replicate: invalid replication stream")
	// ErrDiverged marks a follower whose state can no longer be reconciled
	// with the leader's: token ordering violated, epoch gap in the stream,
	// or a consistency-token mismatch after replay. A diverged follower
	// stops replicating (fail closed) and must be rebuilt.
	ErrDiverged = errors.New("replicate: follower diverged from leader")
)

// Batch is one replication response: the leader's ack plus either a framed
// record stream continuing the follower's token or a full snapshot
// bootstrap. An empty batch (no frames, no snapshot) means the follower is
// caught up to Ack.
type Batch struct {
	// From echoes the follower token the batch continues from.
	From uint64 `json:"from"`
	// Ack is the leader's last durably acknowledged epoch.
	Ack uint64 `json:"ack"`
	// Frames is the CRC32C-framed wal.Record stream covering (From, Ack].
	Frames []byte `json:"frames,omitempty"`
	// Snapshot is a full encoded snapshot at epoch Ack, sent when From is
	// below the leader's retained frame horizon (follower too far behind,
	// or the leader restarted and compacted its history).
	Snapshot []byte `json:"snapshot,omitempty"`
}

// LeaderConfig tunes a Leader. Zero values take the defaults noted per field.
type LeaderConfig struct {
	// MaxTail bounds the in-memory record tail; older records are dropped
	// and the horizon rises, turning deep catch-ups into snapshot
	// bootstraps. Default 1024, negative keeps nothing (every sync that is
	// not already caught up bootstraps).
	MaxTail int
	// MaxWait caps how long a FetchWait long-poll parks server-side,
	// whatever the client asked for; default 25 seconds. The cap bounds how
	// many goroutines a slow or malicious client can hold open and keeps the
	// poll comfortably inside common proxy idle timeouts.
	MaxWait time.Duration
	// Tracer receives the replication counters: replicate.batches,
	// replicate.bootstraps, replicate.frames_shipped and
	// replicate.long_polls are read from the LeaderStats fields tagged
	// `trace` when the trace is serialized; replicate.appends counts
	// retained records, beside the install events.
	Tracer *obs.Tracer
}

// LeaderStats is a point-in-time view of the leader's shipping counters.
// Fields tagged `trace` are the counters LeaderConfig.Tracer serializes.
type LeaderStats struct {
	// Ack is the last durably acknowledged epoch.
	Ack uint64 `json:"ack"`
	// Horizon is the epoch below which frame catch-up is impossible and a
	// sync turns into a snapshot bootstrap.
	Horizon uint64 `json:"horizon"`
	// TailLen is the number of retained records.
	TailLen int `json:"tail_len"`
	// Batches counts frame batches served (including empty caught-up ones).
	Batches int64 `json:"batches" trace:"replicate.batches"`
	// Bootstraps counts full-snapshot responses served.
	Bootstraps int64 `json:"bootstraps" trace:"replicate.bootstraps"`
	// FramesShipped counts records shipped inside frame batches.
	FramesShipped int64 `json:"frames_shipped" trace:"replicate.frames_shipped"`
	// Waiters is the number of long-poll fetches currently parked waiting
	// for the next append (a gauge, not a counter).
	Waiters int64 `json:"waiters"`
	// LongPolls counts FetchWait calls that actually parked.
	LongPolls int64 `json:"long_polls" trace:"replicate.long_polls"`
}

// Leader owns absorbs for a replicated fleet. It implements
// serve.WriteAheadLog so it slots into serve.Config.WAL exactly where a
// wal.Manager would: Append forwards to the inner durable layer first (its
// nil return is the durability ack), then retains the record for shipping.
// With a nil inner WAL the leader acknowledges from memory — replication
// without durability — which a production fleet should not do, but tests
// and ephemeral deployments may.
//
// Leader also implements Transport, so an in-process follower can sync from
// it directly; HTTP followers go through Handler.
type Leader struct {
	inner  serve.WriteAheadLog
	tracer *obs.Tracer

	maxWait time.Duration

	mu      sync.Mutex
	ack     uint64
	horizon uint64 // epoch before the first retained record
	tail    []wal.Record
	snap    *core.Snapshot // latest committed snapshot, the bootstrap image
	maxTail int
	stats   LeaderStats
	// notify is closed (and replaced) whenever the ack advances or the
	// retained state is replaced wholesale: the broadcast that wakes every
	// parked FetchWait.
	notify chan struct{}
}

// NewLeader builds a leader over the serving snapshot start (epoch = the
// leader's recovered state) and an optional inner durable WAL.
func NewLeader(start *core.Snapshot, inner serve.WriteAheadLog, cfg LeaderConfig) (*Leader, error) {
	if start == nil {
		return nil, fmt.Errorf("replicate: nil start snapshot")
	}
	if cfg.MaxTail == 0 {
		cfg.MaxTail = 1024
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 25 * time.Second
	}
	l := &Leader{
		inner:   inner,
		tracer:  cfg.Tracer,
		maxWait: cfg.MaxWait,
		ack:     start.Epoch(),
		horizon: start.Epoch(),
		snap:    start,
		maxTail: cfg.MaxTail,
		notify:  make(chan struct{}),
	}
	cfg.Tracer.Read(func() any { return l.LeaderStats() })
	return l, nil
}

// Append implements serve.WriteAheadLog: durably log the absorb through the
// inner WAL, then retain it for shipping. Returning nil is the ack.
func (l *Leader) Append(name string, labelWeights, prunedVec []float64, epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch != l.ack+1 {
		return fmt.Errorf("replicate: append epoch %d, want %d", epoch, l.ack+1)
	}
	if l.inner != nil {
		if err := l.inner.Append(name, labelWeights, prunedVec, epoch); err != nil {
			return err
		}
	}
	l.retainLocked(wal.Record{
		Name: name, LabelWeights: labelWeights, PrunedVec: prunedVec, Epoch: epoch,
	})
	return nil
}

// AppendCatalog implements serve.WriteAheadLog for the second record kind:
// the catalog update is made durable by the inner WAL, then retained in the
// same shipping tail as absorbs — followers replay both kinds in epoch order
// from one stream.
func (l *Leader) AppendCatalog(up cloud.Update, epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch != l.ack+1 {
		return fmt.Errorf("replicate: append epoch %d, want %d", epoch, l.ack+1)
	}
	if l.inner != nil {
		if err := l.inner.AppendCatalog(up, epoch); err != nil {
			return err
		}
	}
	u := up
	l.retainLocked(wal.Record{Kind: wal.KindCatalog, Catalog: &u, Epoch: epoch})
	return nil
}

// retainLocked appends one acked record to the shipping tail, trimming past
// MaxTail (the horizon rises and deep catch-ups become bootstraps).
func (l *Leader) retainLocked(rec wal.Record) {
	l.tail = append(l.tail, rec)
	keep := l.maxTail
	if keep < 0 {
		keep = 0
	}
	for len(l.tail) > keep {
		l.tail = l.tail[1:]
		l.horizon++
	}
	l.ack = rec.Epoch
	l.wakeLocked()
	l.tracer.Count("replicate.appends", 1)
}

// wakeLocked broadcasts progress to every parked FetchWait. Caller holds l.mu.
func (l *Leader) wakeLocked() {
	close(l.notify)
	l.notify = make(chan struct{})
}

// Committed implements serve.WriteAheadLog: retain the published snapshot as
// the bootstrap image and give the inner WAL its compaction chance.
func (l *Leader) Committed(snap *core.Snapshot) error {
	l.mu.Lock()
	l.snap = snap
	l.mu.Unlock()
	if l.inner != nil {
		return l.inner.Committed(snap)
	}
	return nil
}

// Stats forwards the inner WAL's durability counters when it reports them
// (wal.Manager does); a memory-only leader reports just its ack epoch.
func (l *Leader) Stats() wal.Stats {
	if r, ok := l.inner.(interface{ Stats() wal.Stats }); ok {
		return r.Stats()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return wal.Stats{Epoch: l.ack}
}

// Ack returns the last durably acknowledged epoch.
func (l *Leader) Ack() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ack
}

// LeaderStats returns the shipping counters.
func (l *Leader) LeaderStats() LeaderStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Ack = l.ack
	st.Horizon = l.horizon
	st.TailLen = len(l.tail)
	return st
}

// Fetch implements Transport: answer one follower sync for the given token.
// A token at the ack returns an empty batch; a token within the retained
// tail returns the framed records covering (from, ack]; a token below the
// horizon returns a snapshot bootstrap; a token beyond the ack is
// divergence and fails with ErrFollowerAhead.
func (l *Leader) Fetch(from uint64) (*Batch, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from > l.ack {
		return nil, fmt.Errorf("%w: token %d, ack %d", ErrFollowerAhead, from, l.ack)
	}
	if from < l.horizon {
		// The frames below the horizon are gone (bounded tail, or a leader
		// restart compacted them): ship the whole committed snapshot. The
		// image may trail the ack by the one record whose Committed has not
		// landed yet; the follower picks that record up next sync.
		var buf bytes.Buffer
		if err := l.snap.Encode(&buf); err != nil {
			return nil, fmt.Errorf("replicate: encoding bootstrap: %w", err)
		}
		l.stats.Bootstraps++
		return &Batch{From: from, Ack: l.snap.Epoch(), Snapshot: buf.Bytes()}, nil
	}
	var frames []byte
	shipped := int64(0)
	for _, rec := range l.tail[from-l.horizon:] {
		frame, err := wal.EncodeFrame(rec)
		if err != nil {
			return nil, fmt.Errorf("replicate: framing epoch %d: %w", rec.Epoch, err)
		}
		frames = append(frames, frame...)
		shipped++
	}
	l.stats.Batches++
	l.stats.FramesShipped += shipped
	return &Batch{From: from, Ack: l.ack, Frames: frames}, nil
}

// FetchWait is Fetch with push-style delivery: when the follower is already
// caught up (from == ack) the call parks until the next append lands, the
// wait budget expires, or ctx is canceled — cutting follower lag from the
// polling interval to roughly one round trip. Expiry returns an empty
// caught-up batch (never an error: an idle leader is healthy); cancellation
// returns ctx.Err() after releasing the waiter slot. The wait budget is
// capped server-side at the leader's MaxWait.
func (l *Leader) FetchWait(ctx context.Context, from uint64, wait time.Duration) (*Batch, error) {
	if wait > l.maxWait {
		wait = l.maxWait
	}
	if wait <= 0 {
		return l.Fetch(from)
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		l.mu.Lock()
		if from != l.ack {
			// Behind (frames or bootstrap), or ahead (divergence): Fetch
			// answers immediately either way.
			l.mu.Unlock()
			return l.Fetch(from)
		}
		ch := l.notify
		l.stats.Waiters++
		if timer == nil {
			l.stats.LongPolls++
			timer = time.NewTimer(wait)
		}
		l.mu.Unlock()
		release := func() {
			l.mu.Lock()
			l.stats.Waiters--
			l.mu.Unlock()
		}
		select {
		case <-ch:
			release()
			// Progress happened; loop to ship it (or re-park on a spurious
			// wholesale-install wake that left the ack unchanged).
		case <-timer.C:
			release()
			return l.Fetch(from) // caught-up empty batch
		case <-ctx.Done():
			release()
			return nil, ctx.Err()
		}
	}
}

// Install implements serve.CheckpointInstaller for staged-upgrade commits
// (DESIGN.md §16): the candidate snapshot replaces the leader's retained
// replication state wholesale — ack and horizon jump to its epoch, the frame
// tail clears, and it becomes the bootstrap image — after the inner WAL (when
// it supports installation) has made it the durable state. Followers still
// holding the old version find their token below the new horizon on the next
// sync and bootstrap straight to the candidate.
func (l *Leader) Install(snap *core.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("replicate: install nil snapshot")
	}
	if inst, ok := l.inner.(serve.CheckpointInstaller); ok {
		if err := inst.Install(snap); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if snap.Epoch() < l.ack {
		return fmt.Errorf("replicate: install epoch %d would rewind ack %d", snap.Epoch(), l.ack)
	}
	l.ack = snap.Epoch()
	l.horizon = snap.Epoch()
	l.tail = nil
	l.snap = snap
	l.wakeLocked()
	if l.tracer.Enabled() {
		l.tracer.Event("replicate/leader", fmt.Sprintf("installed snapshot at epoch %d", snap.Epoch()))
	}
	return nil
}

// Handler returns the leader's HTTP surface, mounted by `vesta serve
// -replicate` next to the prediction endpoints:
//
//	GET /replicate/frames?from=N           one sync batch for follower token N
//	GET /replicate/frames?from=N&wait=D    long-poll: park up to D (Go duration
//	                                       syntax, capped at the leader's
//	                                       MaxWait) until an append lands
//	GET /replicate/status                  ack, horizon, shipping counters
func (l *Leader) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replicate/frames", func(w http.ResponseWriter, r *http.Request) {
		from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if err != nil {
			writeJSONStatus(w, http.StatusBadRequest, errorBody{Error: "bad from token", Code: "bad_request"})
			return
		}
		var b *Batch
		if ws := r.URL.Query().Get("wait"); ws != "" {
			wait, perr := time.ParseDuration(ws)
			if perr != nil || wait < 0 {
				writeJSONStatus(w, http.StatusBadRequest, errorBody{Error: "bad wait duration", Code: "bad_request"})
				return
			}
			// The request context unparks the waiter the moment the client
			// disconnects, so an abandoned long poll never leaks its slot.
			b, err = l.FetchWait(r.Context(), from, wait)
			if err != nil && r.Context().Err() != nil {
				return // client gone; nothing to write
			}
		} else {
			b, err = l.Fetch(from)
		}
		if err != nil {
			status, code := http.StatusInternalServerError, "internal"
			if errors.Is(err, ErrFollowerAhead) {
				status, code = http.StatusConflict, "follower_ahead"
			}
			writeJSONStatus(w, status, errorBody{Error: err.Error(), Code: code})
			return
		}
		writeJSONStatus(w, http.StatusOK, b)
	})
	mux.HandleFunc("GET /replicate/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSONStatus(w, http.StatusOK, l.LeaderStats())
	})
	return mux
}

// errorBody mirrors the serve layer's JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure","code":"internal"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}
