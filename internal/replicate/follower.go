package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"vesta/internal/chaos"
	"vesta/internal/core"
	"vesta/internal/obs"
	"vesta/internal/serve"
	"vesta/internal/wal"
)

// Transport fetches one replication batch for a follower token. Implemented
// by *Leader (in-process), HTTPTransport (the wire), and FaultTransport
// (deterministic chaos injection for the convergence matrix).
type Transport interface {
	Fetch(from uint64) (*Batch, error)
}

// WaitTransport is a Transport that also supports push-style long-poll
// fetches: FetchWait parks at the leader until an append lands or the wait
// budget expires, cutting follower lag from the polling interval to roughly
// one round trip. *Leader and HTTPTransport implement it; a follower run
// with RunWait uses it when available and falls back to plain Fetch.
type WaitTransport interface {
	Transport
	FetchWait(ctx context.Context, from uint64, wait time.Duration) (*Batch, error)
}

// HTTPTransport syncs from a leader's /replicate/frames endpoint.
type HTTPTransport struct {
	// URL is the leader's base URL (e.g. http://127.0.0.1:8372).
	URL string
	// Client overrides the HTTP client; nil uses a 30-second-timeout client.
	Client *http.Client
}

// Fetch implements Transport.
func (t *HTTPTransport) Fetch(from uint64) (*Batch, error) {
	return t.fetch(context.Background(), from, 0)
}

// FetchWait implements WaitTransport: the wait budget rides the query string
// (&wait=D) and the leader parks the request server-side. The per-call HTTP
// timeout is the budget plus headroom, so a healthy long poll is never cut
// off by the client while parked.
func (t *HTTPTransport) FetchWait(ctx context.Context, from uint64, wait time.Duration) (*Batch, error) {
	return t.fetch(ctx, from, wait)
}

func (t *HTTPTransport) fetch(ctx context.Context, from uint64, wait time.Duration) (*Batch, error) {
	client := t.Client
	if client == nil {
		timeout := 30 * time.Second
		if wait > 0 {
			timeout = wait + 30*time.Second
		}
		client = &http.Client{Timeout: timeout}
	}
	url := fmt.Sprintf("%s/replicate/frames?from=%d", strings.TrimRight(t.URL, "/"), from)
	if wait > 0 {
		url += "&wait=" + wait.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("replicate: building fetch %s: %w", url, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replicate: fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("replicate: reading batch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		// A 409 means the leader considers this follower ahead of its ack —
		// divergence, surfaced as the typed sentinel so the follower fails
		// closed rather than retrying forever.
		if resp.StatusCode == http.StatusConflict {
			return nil, fmt.Errorf("%w: leader answered %s", ErrFollowerAhead, strings.TrimSpace(string(body)))
		}
		return nil, fmt.Errorf("replicate: leader answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var b Batch
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, fmt.Errorf("%w: undecodable batch: %v", ErrBadStream, err)
	}
	return &b, nil
}

// FaultTransport wraps a transport with a deterministic chaos.NetPlan: sync
// rounds are counted per follower, partitioned rounds fail with
// chaos.ErrPartitioned, lagged rounds complete but deliver nothing. The
// convergence matrix swaps Inner between rounds to model a leader restart;
// the field is read per Fetch, so single-threaded test drivers may reassign
// it between syncs.
type FaultTransport struct {
	// Inner is the real transport underneath the faults.
	Inner Transport
	// Plan schedules the injected faults.
	Plan chaos.NetPlan
	// Follower is this follower's 0-based index in the plan.
	Follower int

	mu    sync.Mutex
	round int
}

// Round returns how many sync rounds this transport has seen.
func (t *FaultTransport) Round() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.round
}

// Fetch implements Transport.
func (t *FaultTransport) Fetch(from uint64) (*Batch, error) {
	if b, err := t.fault(from); b != nil || err != nil {
		return b, err
	}
	return t.Inner.Fetch(from)
}

// FetchWait implements WaitTransport: the fault schedule applies per round
// exactly as for Fetch, and un-faulted rounds forward to the inner
// transport's FetchWait when it has one.
func (t *FaultTransport) FetchWait(ctx context.Context, from uint64, wait time.Duration) (*Batch, error) {
	if b, err := t.fault(from); b != nil || err != nil {
		return b, err
	}
	if wt, ok := t.Inner.(WaitTransport); ok {
		return wt.FetchWait(ctx, from, wait)
	}
	return t.Inner.Fetch(from)
}

// fault advances the round counter and applies the schedule: a partitioned
// round returns the error, a lagged round returns its empty batch, and an
// un-faulted round returns (nil, nil) — forward to the inner transport.
func (t *FaultTransport) fault(from uint64) (*Batch, error) {
	t.mu.Lock()
	t.round++
	r := t.round
	t.mu.Unlock()
	if t.Plan.Partitioned(t.Follower, r) {
		return nil, fmt.Errorf("%w: follower %d round %d", chaos.ErrPartitioned, t.Follower, r)
	}
	if t.Plan.Lagged(t.Follower, r) {
		// Delivery delayed: the round completes but the follower observes no
		// progress, exactly as if the leader had nothing new.
		return &Batch{From: from, Ack: from}, nil
	}
	return nil, nil
}

// FollowerStats is a point-in-time view of a follower's replication state.
// Fields tagged `trace` are the counters the follower's tracer serializes.
type FollowerStats struct {
	// Syncs counts completed fetch rounds, including empty caught-up ones.
	Syncs int64 `json:"syncs" trace:"replicate.syncs"`
	// Applied counts records replayed into the served snapshot.
	Applied int64 `json:"applied" trace:"replicate.applied"`
	// Bootstraps counts full-snapshot installs.
	Bootstraps int64 `json:"bootstraps" trace:"replicate.bootstraps"`
	// Failures counts retryable transport errors (partitions, timeouts).
	// Terminal divergences set Broken instead; this counter is the
	// "transient fetch errors" signal routers and operators watch.
	Failures int64 `json:"failures" trace:"replicate.sync_failures"`
	// Paused counts sync rounds skipped (or cut short) because the server
	// had a rollout candidate staged: replication holds still while the node
	// serves an uncommitted version and resumes when the stage resolves.
	Paused int64 `json:"paused" trace:"replicate.paused"`
	// Epoch is the follower's published consistency token.
	Epoch uint64 `json:"epoch"`
	// LeaderAck is the leader's last acked epoch as of the last good sync.
	LeaderAck uint64 `json:"leader_ack"`
	// Lag is LeaderAck - Epoch at the last good sync: the replication-lag
	// signal a router health check reads.
	Lag uint64 `json:"lag"`
	// Broken reports a terminal divergence; the follower has stopped
	// replicating and must be rebuilt.
	Broken bool `json:"broken"`
}

// Follower replays the leader's stream into a read-only serve.Server. One
// sync loop per server; sync rounds serialize on syncMu. Counters live under
// mu, which is never held across network I/O — a follower parked in a long
// poll (RunWait) still answers Stats() immediately, so the /stats and
// /healthz surfaces it feeds stay responsive to router probes.
type Follower struct {
	server *serve.Server
	base   *core.Snapshot
	tr     Transport
	tracer *obs.Tracer

	syncMu sync.Mutex // serializes sync rounds end to end, fetch included
	mu     sync.Mutex // guards broken + stats; fast, never held while parked
	broken error
	stats  FollowerStats
}

// NewFollower builds a follower replaying into server. base is the epoch the
// follower's lineage starts from (the snapshot its server was created over);
// its config and catalog decode bootstrap images, and its (epoch, workloads)
// pair anchors the consistency-token check.
func NewFollower(server *serve.Server, base *core.Snapshot, tr Transport, tracer *obs.Tracer) (*Follower, error) {
	if server == nil || base == nil || tr == nil {
		return nil, fmt.Errorf("replicate: follower needs server, base snapshot, and transport")
	}
	f := &Follower{server: server, base: base, tr: tr, tracer: tracer}
	tracer.Read(func() any { return f.Stats() })
	return f, nil
}

// Broken returns the terminal divergence error, or nil while the follower is
// healthy. Once broken, every further SyncOnce refuses with the same error.
func (f *Follower) Broken() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.broken
}

// Stats returns the follower's replication counters.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Epoch = f.server.Snapshot().Epoch()
	st.Broken = f.broken != nil
	return st
}

// failClosed records a terminal divergence: the follower stops replicating
// rather than serve state it cannot prove consistent with the leader.
func (f *Follower) failClosed(err error) error {
	f.broken = err
	if f.tracer.Enabled() {
		f.tracer.Event("replicate/follower", "diverged: "+err.Error())
	}
	return err
}

// tokenErr verifies the consistency token of a snapshot about to be
// published: every epoch a lineage advances past base is either a workload
// absorb (+1 workload) or a catalog update (+1 catalog version), so a
// lineage that started at base with W workloads must report exactly
// W + (epoch - baseEpoch) - (catalogVersion - baseCatalogVersion) workloads
// at every later epoch, and neither the epoch nor the catalog version may
// rewind.
func (f *Follower) tokenErr(snap *core.Snapshot) error {
	if snap.Epoch() < f.base.Epoch() || snap.CatalogVersion() < f.base.CatalogVersion() {
		return fmt.Errorf("%w: token (epoch %d, catalog %d) rewinds base (epoch %d, catalog %d)",
			ErrDiverged, snap.Epoch(), snap.CatalogVersion(), f.base.Epoch(), f.base.CatalogVersion())
	}
	dCat := snap.CatalogVersion() - f.base.CatalogVersion()
	dEpoch := snap.Epoch() - f.base.Epoch()
	if dCat > dEpoch {
		return fmt.Errorf("%w: token (epoch %d, catalog %d): more catalog updates than epochs since base",
			ErrDiverged, snap.Epoch(), snap.CatalogVersion())
	}
	wantW := f.base.Workloads() + int(dEpoch) - int(dCat)
	if snap.Workloads() != wantW {
		return fmt.Errorf("%w: token (epoch %d, catalog %d, workloads %d), want workloads %d",
			ErrDiverged, snap.Epoch(), snap.CatalogVersion(), snap.Workloads(), wantW)
	}
	return nil
}

// SyncOnce performs one replication round: fetch the batch for the current
// token, verify it, and replay it into the served snapshot. It returns how
// many epochs the follower advanced. Transport errors (partitions,
// timeouts) are retryable and only counted; verification failures are
// terminal — the follower breaks and refuses further syncs.
func (f *Follower) SyncOnce() (int, error) {
	n, _, err := f.syncRound(context.Background(), 0)
	return n, err
}

// SyncWait is SyncOnce through the transport's long-poll arm (WaitTransport)
// with the given wait budget; a transport without one falls back to a plain
// fetch.
func (f *Follower) SyncWait(ctx context.Context, wait time.Duration) (int, error) {
	n, _, err := f.syncRound(ctx, wait)
	return n, err
}

// syncRound is the shared body of SyncOnce/SyncWait. The middle return
// reports a paused round: the server has a rollout candidate staged, so the
// round applied nothing and the caller should back off instead of spinning.
func (f *Follower) syncRound(ctx context.Context, wait time.Duration) (int, bool, error) {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	f.mu.Lock()
	if f.broken != nil {
		err := f.broken
		f.mu.Unlock()
		return 0, false, err
	}
	if f.pausedLocked() {
		f.mu.Unlock()
		return 0, true, nil
	}
	f.mu.Unlock()
	cur := f.server.Snapshot().Epoch()
	// The fetch — which may park at the leader for the whole wait budget —
	// runs outside f.mu so Stats() (and the /healthz it feeds) never blocks
	// behind a parked long poll.
	var b *Batch
	var err error
	if wt, ok := f.tr.(WaitTransport); ok && wait > 0 {
		b, err = wt.FetchWait(ctx, cur, wait)
	} else {
		b, err = f.tr.Fetch(cur)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		if ctx.Err() != nil {
			// Shutdown (or an abandoned round), not network weather: report
			// without counting a failure or breaking.
			return 0, false, ctx.Err()
		}
		if isTerminal(err) {
			return 0, false, f.failClosed(err)
		}
		f.stats.Failures++
		return 0, false, err
	}
	applied, err := f.applyLocked(cur, b)
	if err != nil {
		if errors.Is(err, serve.ErrStaged) {
			// The server staged a candidate between the fetch and the replay:
			// drop the batch (the leader still has it) and hold still.
			f.countPauseLocked()
			return 0, true, nil
		}
		return applied, false, f.failClosed(err)
	}
	f.stats.Syncs++
	f.stats.Applied += int64(applied)
	f.stats.LeaderAck = b.Ack
	f.stats.Lag = b.Ack - f.server.Snapshot().Epoch()
	return applied, false, nil
}

// pausedLocked reports (and counts) a staged server. Caller holds f.mu.
func (f *Follower) pausedLocked() bool {
	if f.server.StagedVersion() == "" {
		return false
	}
	f.countPauseLocked()
	return true
}

func (f *Follower) countPauseLocked() {
	f.stats.Paused++
}

// isTerminal classifies a transport error: divergence sentinels are
// terminal, anything else (network weather) is retryable.
func isTerminal(err error) bool {
	return errors.Is(err, ErrFollowerAhead) || errors.Is(err, ErrBadStream) || errors.Is(err, ErrDiverged)
}

// applyLocked replays one verified batch. Caller holds f.mu.
func (f *Follower) applyLocked(cur uint64, b *Batch) (int, error) {
	if b.Ack < cur {
		return 0, fmt.Errorf("%w: leader ack %d behind follower token %d", ErrDiverged, b.Ack, cur)
	}
	if len(b.Snapshot) > 0 {
		if v := f.server.StagedVersion(); v != "" {
			// A rollout candidate landed between the fetch and the replay:
			// installing a bootstrap now would clobber the staged version.
			return 0, fmt.Errorf("%w (version %q): bootstrap deferred", serve.ErrStaged, v)
		}
		snap, err := core.DecodeSnapshot(bytes.NewReader(b.Snapshot), f.base.Config(), f.base.Catalog())
		if err != nil {
			return 0, fmt.Errorf("%w: undecodable bootstrap: %v", ErrBadStream, err)
		}
		if snap.Epoch() != b.Ack {
			return 0, fmt.Errorf("%w: bootstrap epoch %d, batch ack %d", ErrBadStream, snap.Epoch(), b.Ack)
		}
		if snap.Epoch() < cur {
			return 0, fmt.Errorf("%w: bootstrap would rewind epoch %d to %d", ErrDiverged, cur, snap.Epoch())
		}
		if err := f.tokenErr(snap); err != nil {
			return 0, err
		}
		if err := f.server.Publish(snap); err != nil {
			return 0, fmt.Errorf("replicate: publishing bootstrap: %w", err)
		}
		f.stats.Bootstraps++
		return int(snap.Epoch() - cur), nil
	}
	if len(b.Frames) == 0 {
		return 0, nil
	}
	recs, valid, err := wal.ScanFrames(b.Frames)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadStream, err)
	}
	if valid != int64(len(b.Frames)) {
		return 0, fmt.Errorf("%w: %d trailing bytes fail frame verification",
			ErrBadStream, int64(len(b.Frames))-valid)
	}
	applied := 0
	for _, rec := range recs {
		e := f.server.Snapshot().Epoch()
		if rec.Epoch <= e {
			continue // duplicate delivery of an already-applied record
		}
		if rec.Epoch != e+1 {
			return applied, fmt.Errorf("%w: record epoch %d after state epoch %d (%v)",
				ErrDiverged, rec.Epoch, e, wal.ErrEpochGap)
		}
		if rec.Epoch > b.Ack {
			return applied, fmt.Errorf("%w: record epoch %d beyond batch ack %d", ErrBadStream, rec.Epoch, b.Ack)
		}
		switch rec.Kind {
		case wal.KindAbsorb:
			if err := f.server.Absorb(rec.Name, rec.LabelWeights, rec.PrunedVec); err != nil {
				if errors.Is(err, serve.ErrStaged) {
					return applied, err // paused mid-batch, not diverged
				}
				return applied, fmt.Errorf("%w: replaying epoch %d workload %q: %v",
					ErrDiverged, rec.Epoch, rec.Name, err)
			}
		case wal.KindCatalog:
			if rec.Catalog == nil {
				return applied, fmt.Errorf("%w: epoch %d catalog record without update payload",
					ErrBadStream, rec.Epoch)
			}
			if err := f.server.AbsorbCatalog(*rec.Catalog); err != nil {
				if errors.Is(err, serve.ErrStaged) {
					return applied, err
				}
				return applied, fmt.Errorf("%w: replaying epoch %d catalog update: %v",
					ErrDiverged, rec.Epoch, err)
			}
		default:
			// A record kind this binary does not know cannot be applied
			// faithfully: fail closed rather than guess (mixed-version fleet).
			return applied, fmt.Errorf("%w: epoch %d unknown record kind %q",
				ErrDiverged, rec.Epoch, rec.Kind)
		}
		if err := f.tokenErr(f.server.Snapshot()); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// RunWait is the follower's replication loop; it runs until ctx is done
// (returning nil) or the follower breaks (returning the terminal error).
// Each round long-polls the leader with the given wait budget, so a
// caught-up follower applies a new append roughly one round trip after the
// leader acks it instead of waiting out a polling interval. Rounds that
// cannot make progress — transport errors, a staged rollout candidate — back
// off by retry (default 500ms) so the loop never spins; productive rounds
// chain immediately, the long poll itself being the pacing. With wait <= 0,
// or over a transport without long-poll support, every round is a plain
// fetch paced by retry: polling.
func (f *Follower) RunWait(ctx context.Context, wait, retry time.Duration) error {
	if retry <= 0 {
		retry = 500 * time.Millisecond
	}
	_, hasWait := f.tr.(WaitTransport)
	poll := wait <= 0 || !hasWait
	for {
		_, paused, err := f.syncRound(ctx, wait)
		if err != nil && f.Broken() != nil {
			return err
		}
		if ctx.Err() != nil {
			return nil
		}
		if paused || err != nil || poll {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(retry):
			}
		}
	}
}
