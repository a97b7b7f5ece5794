// Package serve implements the concurrent prediction-serving subsystem: a
// long-lived server that amortizes one trained Vesta system across many
// simultaneous prediction requests.
//
// Architecture (DESIGN.md §10):
//
//   - Trained state is published as an immutable core.Snapshot behind an
//     atomic pointer. Updates (absorbing a completed target) build a new
//     snapshot copy-on-write and hot-swap the pointer; in-flight predictions
//     keep the snapshot they captured, so readers never block on writers and
//     never observe a half-published state.
//   - Admission goes through a bounded queue served by a fixed pool of
//     long-lived workers (parallel.Resolve(Config.Workers)). Each worker
//     takes one task at a time and answers it the moment it is computed, so
//     no request waits for another and no worker idles behind a straggler.
//     A worker computes against the snapshot current when it takes the task
//     and recomputes once if a publish lands meanwhile, which keeps the
//     epochs a node answers with monotonic. A full queue rejects immediately
//     with ErrQueueFull (backpressure instead of unbounded buffering); a
//     draining server rejects with ErrShuttingDown.
//   - A fixed-capacity LRU cache keyed by (snapshot epoch, request
//     fingerprint) short-circuits repeated queries past the CMF solve. The
//     epoch in the key makes hot-swaps self-invalidating. Hits are answered
//     at admission, before the queue — a cached response never waits behind
//     uncached compute — and concurrent misses on the same key coalesce
//     into a single computation (singleflight), so a thundering herd charges
//     one solve, not N.
//   - The uncached path itself is the precomputed-plan fast path (DESIGN.md
//     §12): predictions — and the target placement behind POST /absorb —
//     run through Snapshot.PredictFast (the target row folded in closed
//     form against the lineage's converged plan factors) and the default
//     meter memoizes profiling campaigns, which are pure functions of
//     (app, vm, seed).
//   - With a configured write-ahead log (Config.WAL, DESIGN.md §11) the
//     absorb path is durable: the record is appended and fsynced before the
//     hot-swap publishes it, so a crash-restarted server recovers every
//     absorbed workload instead of re-profiling it.
//
// Determinism contract: the response body is a pure function of (snapshot,
// request). Worker count, completion order, cache state, and concurrent
// hot-swaps can change *which* snapshot a request sees and how fast it is
// answered, but never the bytes produced for a given (snapshot, request)
// pair — the serving extension of the repo's offline bit-identical contract.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/obs"
	"vesta/internal/oracle"
	"vesta/internal/parallel"
	"vesta/internal/sim"
	"vesta/internal/wal"
	"vesta/internal/workload"
)

// Typed serving errors. Handlers and clients match with errors.Is.
var (
	// ErrQueueFull is returned when the admission queue is at capacity; the
	// caller should back off and retry (HTTP 503 with a Retry-After hint).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrShed is returned when a best-effort request (Priority >= 1) is
	// refused because queue occupancy crossed Config.ShedThreshold. It wraps
	// ErrQueueFull so clients and handlers that already match the 503
	// back-off contract keep working; the Stats counter tells them apart.
	ErrShed = fmt.Errorf("%w: shed best-effort traffic", ErrQueueFull)
	// ErrShuttingDown is returned for requests admitted after Close began;
	// already-queued requests still drain to completion.
	ErrShuttingDown = errors.New("serve: server shutting down")
	// ErrReadOnly is returned for mutating control-plane requests against a
	// read-only replica (HTTP 403): a follower's state comes from the
	// replication stream, never from its own clients.
	ErrReadOnly = errors.New("serve: read-only replica")
	// ErrUnknownApp is returned when the requested application is not in the
	// workload table.
	ErrUnknownApp = errors.New("serve: unknown application")
	// ErrBadRequest is returned for requests that fail validation before
	// admission (missing app, negative input size, malformed body).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrConflict is returned when an absorb names a workload already in the
	// knowledge graph (HTTP 409).
	ErrConflict = errors.New("serve: workload already absorbed")
	// ErrStaged is returned for mutations (absorb, catalog update) while an
	// upgrade candidate is staged but not yet committed: the fleet is mid-
	// rollout and every node must hold still so the health gate compares like
	// with like. Commit or revert the staged version to unfreeze.
	ErrStaged = errors.New("serve: upgrade staged; mutations frozen")
)

// WriteAheadLog is the durability hook of the absorb path (implemented by
// internal/wal.Manager). When configured, Absorb appends the record and waits
// for the durable acknowledgement *before* publishing the new snapshot, so a
// crash can never forget a state a response has already revealed; Committed
// runs after the hot-swap and may compact the log.
type WriteAheadLog interface {
	// Append durably records one absorb; returning nil is the ack.
	Append(name string, labelWeights, prunedVec []float64, epoch uint64) error
	// AppendCatalog durably records one catalog update (the second WAL record
	// kind, wal.KindCatalog) under the same contract as Append.
	AppendCatalog(up cloud.Update, epoch uint64) error
	// Committed observes the published snapshot carrying the last appended
	// record. An error here is operational (failed compaction), never a
	// reason to unpublish: the record itself is already durable.
	Committed(snap *core.Snapshot) error
}

// CheckpointInstaller is the optional durability hook of the staged-upgrade
// commit (implemented by wal.Manager.Install): when the configured WAL also
// implements it, CommitStaged installs the candidate snapshot as the durable
// state — checkpoint written, log trimmed, acknowledged epoch advanced — so
// a crash after commit recovers the new version, never the incumbent.
type CheckpointInstaller interface {
	Install(snap *core.Snapshot) error
}

// Config tunes the server. Zero values take the defaults noted per field.
type Config struct {
	// Workers is the number of long-lived workers executing queued misses
	// (<= 0: one per CPU). Response bytes are identical at every value.
	Workers int
	// QueueSize bounds the admission queue; default 256.
	QueueSize int
	// ShedThreshold enables priority-aware load shedding: a best-effort
	// request (Request.Priority >= 1) is rejected with ErrShed once queue
	// occupancy reaches this fraction of QueueSize, keeping headroom for
	// premium (Priority 0) traffic during overload. 0 disables shedding
	// (every request competes for the full queue); values outside [0, 1]
	// are rejected by New.
	ShedThreshold float64
	// BatchSize is ignored: each worker answers one task at a time. Kept so
	// existing callers compile.
	BatchSize int
	// CacheSize is the LRU response-cache capacity in entries; default 1024.
	// NoCache disables caching entirely (the cache-off arm of the
	// determinism proof).
	CacheSize int
	NoCache   bool
	// ProfileCacheSize bounds the memoized-measurement LRU shared by the
	// default per-request meters (0: 4096 entries; negative: memoization
	// off). Only the default meter memoizes — its profiles are pure
	// functions of (app, vm, seed) — so a custom MeterFor is never cached.
	// Run accounting is unchanged either way: recalled profiles still charge
	// the meter.
	ProfileCacheSize int
	// SimConfig configures the per-request measurement simulator (cluster
	// size, repeats). The zero value takes sim.DefaultConfig().
	SimConfig sim.Config
	// MeterFor overrides the measurement service built for a request seed
	// (fault-injection rehearsals, tests). Nil builds a default meter per
	// request over one shared sim.New(SimConfig) and the profile memo; its
	// responses are oracle.NewMeter's bytes, a pure function of
	// (snapshot, request).
	MeterFor func(seed uint64) oracle.Service
	// Tracer receives the serving counters, read from the server's Stats
	// fields tagged `trace` (serve.requests, serve.cache_hits, serve.swaps,
	// the serve.max_batch peak, ...) when the trace is serialized, plus the
	// serve.epoch and serve.catalog_version peaks and the WAL and rollout
	// events. Live concurrent traffic makes worker overlap and cache hits
	// schedule-dependent, so a serving trace is only byte-reproducible for
	// sequential replays; the response bodies are always reproducible.
	Tracer *obs.Tracer
	// WAL, when non-nil, makes absorbed state durable (DESIGN.md §11): every
	// Absorb is appended and fsynced through this hook before its snapshot is
	// published. Nil serves in-memory only (restart loses absorbed targets).
	WAL WriteAheadLog
	// ReadOnly rejects client-driven absorbs (AbsorbApp, POST /absorb) with
	// ErrReadOnly. Replication followers run read-only: their state advances
	// exclusively through the leader's stream (Absorb/Publish stay available
	// to the in-process replication loop).
	ReadOnly bool
	// RolloutControl mounts the staged-upgrade control plane (POST
	// /rollout/{stage,commit,revert}, GET /rollout/status) on Handler. Off by
	// default: only fleets run by a rollout coordinator should accept remote
	// version pushes.
	RolloutControl bool
	// DecodeBase, when non-nil, is the decode basis for candidate snapshots
	// arriving via POST /rollout/stage: its Config and version-0 catalog are
	// passed to core.DecodeSnapshot exactly as a replication follower passes
	// its epoch-0 base. Nil uses the construction snapshot (correct unless the
	// server was constructed from recovered state whose catalog had already
	// evolved past version 0).
	DecodeBase *core.Snapshot
}

func (c *Config) fillDefaults() {
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.ProfileCacheSize == 0 {
		c.ProfileCacheSize = defaultProfileCacheSize
	}
	if c.SimConfig.Nodes == 0 && c.SimConfig.Repeats == 0 {
		c.SimConfig = sim.DefaultConfig()
	}
}

// Request is one prediction query.
type Request struct {
	// App is the Table 3 application name (required).
	App string `json:"app"`
	// InputGB overrides the application's input size when > 0.
	InputGB float64 `json:"input_gb,omitempty"`
	// Seed drives the request's measurement stream; 0 takes the CLI default
	// seed 1. Requests with equal (app, input_gb, seed, top) against the
	// same snapshot epoch produce byte-identical responses.
	Seed uint64 `json:"seed,omitempty"`
	// Top bounds the ranking entries in the response; 0 takes 10, values
	// beyond the catalog return the full ranking.
	Top int `json:"top,omitempty"`
	// Priority classes the request for admission control only: 0 is premium,
	// >= 1 is best-effort and eligible for shedding under Config.ShedThreshold.
	// The response body is independent of Priority (it is not part of the
	// cache identity); negative values fail validation.
	Priority int `json:"priority,omitempty"`
}

// fingerprint is the cache identity of a resolved request. Float bits are
// rendered exactly so distinct inputs can never collide.
func (r Request) fingerprint() string {
	return r.App + "\x00" + strconv.FormatUint(math.Float64bits(r.InputGB), 16) +
		"\x00" + strconv.FormatUint(r.Seed, 10) + "\x00" + strconv.Itoa(r.Top)
}

// jsonFloat renders exactly like float64 except that non-finite values
// (an Inf predicted time for a zero-scored VM) become JSON null, keeping
// every response body valid JSON with pinned bytes.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// RankEntry is one VM in a response ranking.
type RankEntry struct {
	VM           string    `json:"vm"`
	Score        jsonFloat `json:"score"`
	PredictedSec jsonFloat `json:"predicted_sec"`
	PredictedUSD jsonFloat `json:"predicted_usd"`
}

// Response is the serialized prediction outcome. Every field is a pure
// function of (snapshot, request); in particular Epoch and Workloads form
// the snapshot-consistency token (see core.Snapshot.Workloads), and nothing
// schedule-dependent (cache state, completion order, queue depth) is included.
type Response struct {
	Target    string `json:"target"`
	Epoch     uint64 `json:"epoch"`
	Workloads int    `json:"workloads"`
	// CatalogVersion is the catalog the ranking was computed against
	// (core.Snapshot.CatalogVersion): 0 until a catalog update is absorbed,
	// then the version of the update lineage. Always emitted — together with
	// Epoch and Workloads it completes the consistency token.
	CatalogVersion uint64      `json:"catalog_version"`
	Best           string      `json:"best"`
	Converged      bool        `json:"converged"`
	MatchDistance  jsonFloat   `json:"match_distance"`
	OnlineRuns     int         `json:"online_runs"`
	Ranking        []RankEntry `json:"ranking"`
}

// Stats is a point-in-time view of the server's counters. Schedule-dependent
// by nature (queue depth, hit counts); exposed for operators, not for the
// determinism contract. Fields tagged `trace` are the counters Config.Tracer
// serializes (obs.Tracer.Read): each is counted once, here.
type Stats struct {
	Requests    int64 `json:"requests" trace:"serve.requests"`
	CacheHits   int64 `json:"cache_hits" trace:"serve.cache_hits"`
	CacheMisses int64 `json:"cache_misses" trace:"serve.cache_misses"`
	// Coalesced counts the subset of CacheHits that attached to an
	// in-flight computation of the same (epoch, fingerprint) instead of
	// reading an already-cached body. Every request counts exactly one of
	// CacheHits/CacheMisses (a coalesced waiter is a hit, never a second
	// miss), so CacheHits+CacheMisses equals the cache-eligible requests.
	Coalesced int64 `json:"coalesced" trace:"serve.coalesced"`
	// HitRate is CacheHits/Requests — the definition the results/serve.md
	// bench table reports. Zero when no requests have been served.
	HitRate      float64 `json:"hit_rate"`
	CacheLen     int     `json:"cache_len"`
	QueueDepth   int     `json:"queue_depth"`
	QueueRejects int64   `json:"queue_rejects" trace:"serve.queue_rejects"`
	// Shed counts best-effort requests refused by the priority shed gate
	// (Config.ShedThreshold) — disjoint from QueueRejects, which counts hard
	// queue-full rejections.
	Shed int64 `json:"shed" trace:"serve.shed"`
	// Batches counts tasks the workers took from the queue (cache hits
	// answered at admission never reach it). MaxBatch is the peak number of
	// tasks executing at once, at most Config.Workers. The JSON names
	// predate per-task dispatch.
	Batches  int64 `json:"batches" trace:"serve.batches"`
	MaxBatch int64 `json:"max_batch" trace:"serve.max_batch,max"`
	// Superseded counts misses recomputed because a publish landed while
	// they were computing. A recompute is not a second miss.
	Superseded int64  `json:"superseded" trace:"serve.superseded"`
	Canceled   int64  `json:"canceled" trace:"serve.canceled"`
	Swaps      int64  `json:"swaps" trace:"serve.swaps"`
	Epoch      uint64 `json:"epoch"`
	Workloads  int    `json:"workloads"`
	// CatalogVersion is the published snapshot's catalog version;
	// CatalogUpdates counts catalog updates absorbed this session.
	CatalogVersion uint64 `json:"catalog_version"`
	CatalogUpdates int64  `json:"catalog_updates" trace:"serve.catalog_updates"`
	Durable        bool   `json:"durable"`
	WALAppends     int64  `json:"wal_appends" trace:"serve.wal_appends"`
	// Profile-memoization counters of the default meter (all zero when a
	// custom MeterFor is configured or memoization is disabled). ProfileHits
	// are simulated cluster campaigns skipped by recall; run accounting in
	// responses is identical either way.
	ProfileHits   int64 `json:"profile_hits"`
	ProfileMisses int64 `json:"profile_misses"`
	ProfileLen    int   `json:"profile_len"`
	// ReadOnly mirrors Config.ReadOnly (follower replicas).
	ReadOnly bool `json:"read_only"`
	// StagedVersion is the pending rollout version while a candidate is
	// staged uncommitted (DESIGN.md §16); CommittedVersion is the last
	// version this node committed. Both empty outside rollouts.
	StagedVersion    string `json:"staged_version,omitempty"`
	CommittedVersion string `json:"committed_version,omitempty"`
	// Replication carries the follower sync counters registered via
	// SetReplicationStats (transient fetch failures, frames applied, replays,
	// pauses); nil on leaders and standalone servers.
	Replication any `json:"replication,omitempty"`
	// WAL is the durable log's own health view (last acked epoch, log size,
	// quarantined checkpoints) when the configured WriteAheadLog exposes one;
	// nil for in-memory servers and opaque WAL implementations.
	WAL *wal.Stats `json:"wal,omitempty"`
}

type task struct {
	req Request // resolved: defaults filled
	app workload.App
	// snap is the snapshot the task is answered from: the published one at
	// admission for the cache probe, refreshed when a worker takes the task
	// and again if a publish supersedes the computation (see execute). key
	// always matches snap.
	snap *core.Snapshot
	key  cacheKey        // valid only when caching is enabled
	ctx  context.Context // the requester's context; a canceled task is skipped, not computed
	done chan taskResult
}

type taskResult struct {
	body []byte
	err  error
}

// Server is the concurrent prediction service. Create with New, stop with
// Close. All exported methods are safe for concurrent use.
type Server struct {
	cfg Config
	// sim is the stateless simulator every default meter shares (nil with a
	// custom MeterFor).
	sim *sim.Simulator

	snap atomic.Pointer[core.Snapshot]

	closeMu  sync.RWMutex // guards queue sends against close
	draining bool
	queue    chan *task
	wg       sync.WaitGroup

	updateMu sync.Mutex // serializes Update/Absorb copy-on-write chains

	// base is the decode basis for staged candidates (Config.DecodeBase or
	// the construction snapshot). Immutable after New.
	base *core.Snapshot

	// stageMu guards the staged-upgrade state. Lock order: updateMu before
	// stageMu — mutators hold updateMu and peek at the stage; readers
	// (Stats, StagedVersion, health probes) take stageMu alone.
	stageMu       sync.Mutex
	staged        *stagedUpgrade
	lastCommitted string
	replStats     func() any

	cacheMu sync.Mutex
	cache   *lruCache
	// flights tracks in-progress miss computations by cache key (guarded by
	// cacheMu like the cache itself). Concurrent requests for the same
	// (epoch, fingerprint) attach to the one in-flight computation instead
	// of redoing it — the singleflight half of the cache contract.
	flights map[cacheKey]*flight

	// profiles is the memoized-measurement LRU behind the default meters
	// (nil with a custom MeterFor or ProfileCacheSize < 0).
	profiles *profileLRU

	requests, hits, misses, rejects, batches, maxBatch, swaps atomic.Int64
	canceled, walAppends, coalesced, catalogUpdates, shed     atomic.Int64
	superseded, running                                       atomic.Int64
}

// flight is one in-progress miss computation. The owner fills body/err and
// then closes done; waiters read only after done is closed.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// stagedUpgrade is the in-flight half of a two-phase version switch: the
// candidate is published (served, replayable by the gate) but the incumbent
// is retained so RevertStaged can restore it bit-for-bit. Nothing durable
// changes until CommitStaged.
type stagedUpgrade struct {
	version   string
	incumbent *core.Snapshot
}

// New builds a server over an initial snapshot and starts its workers.
func New(snap *core.Snapshot, cfg Config) (*Server, error) {
	if snap == nil {
		return nil, fmt.Errorf("serve: nil snapshot")
	}
	if math.IsNaN(cfg.ShedThreshold) || cfg.ShedThreshold < 0 || cfg.ShedThreshold > 1 {
		return nil, fmt.Errorf("serve: shed threshold %v (want [0, 1])", cfg.ShedThreshold)
	}
	cfg.fillDefaults()
	s := &Server{
		cfg:   cfg,
		queue: make(chan *task, cfg.QueueSize),
	}
	if cfg.MeterFor == nil {
		// Default meter: a stateless simulator shared by every request (its
		// profiles are pure functions of (app, vm, seed)), memoized through
		// the profile LRU unless disabled.
		if cfg.ProfileCacheSize > 0 {
			s.profiles = newProfileLRU(cfg.ProfileCacheSize)
		}
		s.sim = sim.New(cfg.SimConfig)
	}
	if !cfg.NoCache {
		s.cache = newLRU(cfg.CacheSize)
		s.flights = make(map[cacheKey]*flight)
	}
	// Pay the lineage's one-time plan solve at construction instead of on
	// the first request (a no-op when the snapshot was decoded from a
	// checkpoint carrying the plan, or shares an already-built lineage).
	if err := snap.PreparePlan(); err != nil {
		return nil, fmt.Errorf("serve: preparing predict plan: %w", err)
	}
	s.snap.Store(snap)
	s.base = cfg.DecodeBase
	if s.base == nil {
		s.base = snap
	}
	cfg.Tracer.Max("serve.epoch", int64(snap.Epoch()))
	cfg.Tracer.Read(func() any { return s.Stats() })
	workers := parallel.Resolve(cfg.Workers)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.work()
	}
	return s, nil
}

// Snapshot returns the currently published snapshot.
func (s *Server) Snapshot() *core.Snapshot { return s.snap.Load() }

// Publish hot-swaps the served snapshot. In-flight predictions keep the
// snapshot they already captured; new work sees the published one.
func (s *Server) Publish(snap *core.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("serve: publish nil snapshot")
	}
	s.snap.Store(snap)
	s.swaps.Add(1)
	s.cfg.Tracer.Max("serve.epoch", int64(snap.Epoch()))
	return nil
}

// Update applies fn to the current snapshot and publishes the result.
// Concurrent Update calls are serialized, so copy-on-write chains (absorb
// upon absorb) never lose an epoch.
func (s *Server) Update(fn func(old *core.Snapshot) (*core.Snapshot, error)) error {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	next, err := fn(s.snap.Load())
	if err != nil {
		return err
	}
	return s.Publish(next)
}

// Absorb records a completed target into the knowledge graph copy-on-write
// and hot-swaps the result — the serving form of core.AbsorbTarget. With a
// configured WAL the ordering is append → fsync ack → publish: the swap is
// visible to readers only once the record is durable, so no response can
// reveal a state a crash would forget.
func (s *Server) Absorb(name string, labelWeights, prunedVec []float64) error {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	if err := s.frozenErr(); err != nil {
		return err
	}
	old := s.snap.Load()
	if old.HasWorkload(name) {
		return fmt.Errorf("%w: %q", ErrConflict, name)
	}
	next, err := old.Absorb(name, labelWeights, prunedVec)
	if err != nil {
		return err
	}
	if s.cfg.WAL != nil {
		if err := s.cfg.WAL.Append(name, labelWeights, prunedVec, next.Epoch()); err != nil {
			return fmt.Errorf("serve: absorb %q not published: %w", name, err)
		}
		s.walAppends.Add(1)
	}
	if err := s.Publish(next); err != nil {
		return err
	}
	if s.cfg.WAL != nil {
		if err := s.cfg.WAL.Committed(next); err != nil {
			// The record is durable and published; a failed compaction only
			// delays log trimming. Surface it on the trace, not to the caller.
			if s.cfg.Tracer.Enabled() {
				s.cfg.Tracer.Event("serve/wal", "compaction failed: "+err.Error())
			}
		}
	}
	return nil
}

// AbsorbCatalog folds one catalog update into the served catalog
// copy-on-write and hot-swaps the result — the catalog twin of Absorb, with
// the same durability ordering: with a configured WAL the update is appended
// as a wal.KindCatalog record and fsynced before the swap, so the catalog
// version a response reveals is always recoverable. Validation failures
// (unknown retiree, bad price, retiring the sandbox VM) wrap ErrBadRequest.
func (s *Server) AbsorbCatalog(up cloud.Update) error {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	if err := s.frozenErr(); err != nil {
		return err
	}
	old := s.snap.Load()
	next, err := old.AbsorbCatalog(up)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if s.cfg.WAL != nil {
		if err := s.cfg.WAL.AppendCatalog(up, next.Epoch()); err != nil {
			return fmt.Errorf("serve: catalog update not published: %w", err)
		}
		s.walAppends.Add(1)
	}
	if err := s.Publish(next); err != nil {
		return err
	}
	s.catalogUpdates.Add(1)
	s.cfg.Tracer.Max("serve.catalog_version", int64(next.CatalogVersion()))
	if s.cfg.WAL != nil {
		if err := s.cfg.WAL.Committed(next); err != nil {
			if s.cfg.Tracer.Enabled() {
				s.cfg.Tracer.Event("serve/wal", "compaction failed: "+err.Error())
			}
		}
	}
	return nil
}

// frozenErr reports ErrStaged while an upgrade is staged. Callers hold
// updateMu (lock order: updateMu before stageMu).
func (s *Server) frozenErr() error {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	if s.staged != nil {
		return fmt.Errorf("%w (version %q)", ErrStaged, s.staged.version)
	}
	return nil
}

// Stage begins a two-phase version switch (DESIGN.md §16): the candidate is
// published — served, health-probed, golden-replayed — but boots uncommitted:
// nothing durable changes, the incumbent is retained, and mutations freeze
// (ErrStaged) until the coordinator resolves the stage with CommitStaged or
// RevertStaged. The candidate's epoch must not rewind the incumbent's.
//
// Stage is idempotent by version, which is what makes a crashed coordinator's
// replay safe: re-staging the staged version is a no-op, re-staging an
// already-committed version is a no-op, and staging a *different* version
// while one is pending answers ErrConflict.
func (s *Server) Stage(version string, cand *core.Snapshot) error {
	if version == "" {
		return fmt.Errorf("%w: empty rollout version", ErrBadRequest)
	}
	if cand == nil {
		return fmt.Errorf("%w: nil candidate snapshot", ErrBadRequest)
	}
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	if s.staged != nil {
		if s.staged.version == version {
			return nil
		}
		return fmt.Errorf("%w: version %q staged, refusing %q", ErrConflict, s.staged.version, version)
	}
	if s.lastCommitted == version {
		return nil
	}
	incumbent := s.snap.Load()
	if cand.Epoch() < incumbent.Epoch() {
		return fmt.Errorf("%w: candidate epoch %d rewinds incumbent epoch %d",
			ErrBadRequest, cand.Epoch(), incumbent.Epoch())
	}
	if err := cand.PreparePlan(); err != nil {
		return fmt.Errorf("serve: preparing candidate plan: %w", err)
	}
	s.staged = &stagedUpgrade{version: version, incumbent: incumbent}
	if err := s.Publish(cand); err != nil {
		s.staged = nil
		return err
	}
	if s.cfg.Tracer.Enabled() {
		s.cfg.Tracer.Event("serve/rollout", fmt.Sprintf("staged version %s at epoch %d", version, cand.Epoch()))
	}
	return nil
}

// StageEncoded is Stage for a serialized candidate (the over-the-wire form of
// POST /rollout/stage): the bytes are decoded against the server's decode
// basis (Config.DecodeBase) exactly as a replication follower decodes a
// bootstrap snapshot. Undecodable bytes answer ErrBadRequest.
func (s *Server) StageEncoded(version string, encoded []byte) error {
	if len(encoded) == 0 {
		return fmt.Errorf("%w: empty candidate snapshot", ErrBadRequest)
	}
	cand, err := core.DecodeSnapshot(bytes.NewReader(encoded), s.base.Config(), s.base.Catalog())
	if err != nil {
		return fmt.Errorf("%w: candidate snapshot: %v", ErrBadRequest, err)
	}
	return s.Stage(version, cand)
}

// CommitStaged makes the staged candidate permanent: with a durable WAL that
// supports installation (CheckpointInstaller) the candidate is checkpointed
// and the log trimmed *before* the stage clears, so an error leaves the node
// staged — retryable — rather than half-committed. Committing a version that
// was never staged but matches the last commit is a no-op (coordinator crash
// replay); anything else is ErrConflict.
func (s *Server) CommitStaged(version string) error {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	if s.staged == nil {
		if s.lastCommitted == version {
			return nil
		}
		return fmt.Errorf("%w: no staged upgrade to commit as %q", ErrConflict, version)
	}
	if s.staged.version != version {
		return fmt.Errorf("%w: staged version %q, refusing commit of %q", ErrConflict, s.staged.version, version)
	}
	if inst, ok := s.cfg.WAL.(CheckpointInstaller); ok {
		if err := inst.Install(s.snap.Load()); err != nil {
			return fmt.Errorf("serve: installing staged version %s: %w", version, err)
		}
	}
	s.lastCommitted = version
	s.staged = nil
	if s.cfg.Tracer.Enabled() {
		s.cfg.Tracer.Event("serve/rollout", "committed version "+version)
	}
	return nil
}

// RevertStaged rolls the staged candidate back: the incumbent snapshot is
// republished bit-for-bit and the freeze lifts. Nothing durable was written
// while staged, so rollback touches no disk state. Reverting a version that
// is not staged is a no-op (idempotent crash replay) — unless that version
// already committed, which is a hard ErrConflict: commit is the point of no
// return, mender-style.
func (s *Server) RevertStaged(version string) error {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	if s.staged == nil {
		if s.lastCommitted == version {
			return fmt.Errorf("%w: version %q already committed; revert past commit is impossible", ErrConflict, version)
		}
		return nil
	}
	if s.staged.version != version {
		return fmt.Errorf("%w: staged version %q, refusing revert of %q", ErrConflict, s.staged.version, version)
	}
	if err := s.Publish(s.staged.incumbent); err != nil {
		return err
	}
	s.staged = nil
	if s.cfg.Tracer.Enabled() {
		s.cfg.Tracer.Event("serve/rollout", "reverted version "+version)
	}
	return nil
}

// StagedVersion returns the pending rollout version, or "" when none is
// staged. Replication followers poll this to pause stream application while
// the node serves an uncommitted candidate.
func (s *Server) StagedVersion() string {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	if s.staged == nil {
		return ""
	}
	return s.staged.version
}

// CommittedVersion returns the last rollout version this node committed
// ("" before any rollout).
func (s *Server) CommittedVersion() string {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	return s.lastCommitted
}

// committedEpoch returns the epoch health probes should advertise: the
// incumbent's while a candidate is staged (an uncommitted epoch must not
// raise a router's staleness floor — rollback would then strand the whole
// fleet below it), the published epoch otherwise.
func (s *Server) committedEpoch() uint64 {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	if s.staged != nil {
		return s.staged.incumbent.Epoch()
	}
	return s.snap.Load().Epoch()
}

// SetReplicationStats registers a callback whose value is embedded as the
// "replication" block of Stats and GET /stats — how a follower's sync
// counters (transient fetch failures, frames applied, pauses) surface on the
// serving node's own diagnostics. Call before serving traffic.
func (s *Server) SetReplicationStats(fn func() any) {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	s.replStats = fn
}

// CatalogResponse reports the post-update consistency token — the
// control-plane acknowledgement of POST /catalog.
type CatalogResponse struct {
	Epoch          uint64 `json:"epoch"`
	CatalogVersion uint64 `json:"catalog_version"`
	VMCount        int    `json:"vm_count"`
	Durable        bool   `json:"durable"`
}

// UpdateCatalog is the client-facing catalog-update flow behind POST
// /catalog: like AbsorbApp it bypasses the admission queue but honours
// read-only replicas (a follower's catalog advances only through the
// replication stream) and shutdown.
func (s *Server) UpdateCatalog(up cloud.Update) (*CatalogResponse, error) {
	if s.cfg.ReadOnly {
		return nil, fmt.Errorf("%w: catalog updates arrive via replication", ErrReadOnly)
	}
	if up.Empty() {
		return nil, fmt.Errorf("%w: empty catalog update", ErrBadRequest)
	}
	s.closeMu.RLock()
	draining := s.draining
	s.closeMu.RUnlock()
	if draining {
		return nil, ErrShuttingDown
	}
	if err := s.AbsorbCatalog(up); err != nil {
		return nil, err
	}
	cur := s.snap.Load()
	return &CatalogResponse{
		Epoch:          cur.Epoch(),
		CatalogVersion: cur.CatalogVersion(),
		VMCount:        len(cur.Catalog()),
		Durable:        s.cfg.WAL != nil,
	}, nil
}

// AbsorbRequest asks the server to complete a target application online and
// fold the result into the knowledge graph under Name.
type AbsorbRequest struct {
	// Name is the workload node recorded in the graph (required, unique).
	Name string `json:"name"`
	// App is the completed Table 3 application (required).
	App string `json:"app"`
	// InputGB overrides the application's input size when > 0.
	InputGB float64 `json:"input_gb,omitempty"`
	// Seed drives the online measurement stream; 0 takes the default seed 1.
	Seed uint64 `json:"seed,omitempty"`
}

// AbsorbResponse reports the post-absorb consistency token.
type AbsorbResponse struct {
	Name      string `json:"name"`
	Epoch     uint64 `json:"epoch"`
	Workloads int    `json:"workloads"`
	Durable   bool   `json:"durable"`
}

// AbsorbApp runs the online predicting phase for the request's application
// against the current snapshot and absorbs the completed target — the
// control-plane flow behind POST /absorb. It bypasses the admission queue
// (absorbs are rare and serialized) but honours shutdown.
//
// The target is placed exactly as /predict places it: Snapshot.PredictFast
// through the memoized meter.
func (s *Server) AbsorbApp(req AbsorbRequest) (*AbsorbResponse, error) {
	if s.cfg.ReadOnly {
		return nil, fmt.Errorf("%w: absorbs arrive via replication", ErrReadOnly)
	}
	if req.Name == "" {
		return nil, fmt.Errorf("%w: missing name", ErrBadRequest)
	}
	preq, app, err := s.resolve(Request{App: req.App, InputGB: req.InputGB, Seed: req.Seed})
	if err != nil {
		return nil, err
	}
	s.closeMu.RLock()
	draining := s.draining
	s.closeMu.RUnlock()
	if draining {
		return nil, ErrShuttingDown
	}
	snap := s.snap.Load()
	if snap.HasWorkload(req.Name) {
		return nil, fmt.Errorf("%w: %q", ErrConflict, req.Name)
	}
	pred, err := snap.PredictFast(app, s.meter(snap, preq.Seed))
	if err != nil {
		return nil, fmt.Errorf("serve: absorb %s: %w", req.App, err)
	}
	if err := s.Absorb(req.Name, pred.LabelWeights, pred.PrunedVec); err != nil {
		return nil, err
	}
	cur := s.snap.Load()
	return &AbsorbResponse{
		Name:      req.Name,
		Epoch:     cur.Epoch(),
		Workloads: cur.Workloads(),
		Durable:   s.cfg.WAL != nil,
	}, nil
}

// Close drains the server: admission stops immediately (ErrShuttingDown),
// already-queued requests run to completion, then the workers exit.
// Close is idempotent and safe to call concurrently.
func (s *Server) Close() {
	s.closeMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.closeMu.Unlock()
	s.wg.Wait()
}

// resolve validates a request and fills its defaults.
func (s *Server) resolve(req Request) (Request, workload.App, error) {
	if req.App == "" {
		return req, workload.App{}, fmt.Errorf("%w: missing app", ErrBadRequest)
	}
	if req.InputGB < 0 || math.IsNaN(req.InputGB) || math.IsInf(req.InputGB, 0) {
		return req, workload.App{}, fmt.Errorf("%w: input_gb %v", ErrBadRequest, req.InputGB)
	}
	if req.Top < 0 {
		return req, workload.App{}, fmt.Errorf("%w: top %d", ErrBadRequest, req.Top)
	}
	if req.Priority < 0 {
		return req, workload.App{}, fmt.Errorf("%w: priority %d", ErrBadRequest, req.Priority)
	}
	app, err := workload.ByName(req.App)
	if err != nil {
		return req, workload.App{}, fmt.Errorf("%w: %q", ErrUnknownApp, req.App)
	}
	if req.InputGB > 0 {
		app = app.WithInput(req.InputGB)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Top == 0 {
		req.Top = 10
	}
	return req, app, nil
}

// PredictBytes answers a request with the canonical serialized response
// body. A cache hit returns immediately — before admission, so cached
// traffic never queues behind uncached compute — but shutdown is checked
// first: every request admitted after Close began gets ErrShuttingDown,
// cached or not. A miss blocks until the response is computed, the context
// is done, or admission is rejected (ErrQueueFull, ErrShuttingDown).
func (s *Server) PredictBytes(ctx context.Context, req Request) ([]byte, error) {
	req, app, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	s.requests.Add(1)
	s.closeMu.RLock()
	draining := s.draining
	s.closeMu.RUnlock()
	if draining {
		return nil, ErrShuttingDown
	}
	t := &task{req: req, app: app, snap: s.snap.Load(), ctx: ctx, done: make(chan taskResult, 1)}
	if s.cache != nil {
		t.key = cacheKey{epoch: t.snap.Epoch(), fp: req.fingerprint()}
		s.cacheMu.Lock()
		body, ok := s.cache.get(t.key)
		s.cacheMu.Unlock()
		if ok {
			s.hits.Add(1)
			return body, nil
		}
	}
	if err := s.enqueue(t); err != nil {
		return nil, err
	}
	select {
	case res := <-t.done:
		return res.body, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Predict is PredictBytes decoded into a Response.
func (s *Server) Predict(ctx context.Context, req Request) (*Response, error) {
	body, err := s.PredictBytes(ctx, req)
	if err != nil {
		return nil, err
	}
	return decodeResponse(body)
}

// Stats returns the current operational counters.
func (s *Server) Stats() Stats {
	snap := s.snap.Load()
	st := Stats{
		Requests:       s.requests.Load(),
		CacheHits:      s.hits.Load(),
		CacheMisses:    s.misses.Load(),
		Coalesced:      s.coalesced.Load(),
		QueueDepth:     len(s.queue),
		QueueRejects:   s.rejects.Load(),
		Shed:           s.shed.Load(),
		Batches:        s.batches.Load(),
		MaxBatch:       s.maxBatch.Load(),
		Superseded:     s.superseded.Load(),
		Canceled:       s.canceled.Load(),
		Swaps:          s.swaps.Load(),
		Epoch:          snap.Epoch(),
		Workloads:      snap.Workloads(),
		CatalogVersion: snap.CatalogVersion(),
		CatalogUpdates: s.catalogUpdates.Load(),
		Durable:        s.cfg.WAL != nil,
		WALAppends:     s.walAppends.Load(),
		ReadOnly:       s.cfg.ReadOnly,
	}
	if ws, ok := s.cfg.WAL.(interface{ Stats() wal.Stats }); ok {
		w := ws.Stats()
		st.WAL = &w
	}
	s.stageMu.Lock()
	if s.staged != nil {
		st.StagedVersion = s.staged.version
	}
	st.CommittedVersion = s.lastCommitted
	repl := s.replStats
	s.stageMu.Unlock()
	if repl != nil {
		st.Replication = repl()
	}
	if st.Requests > 0 {
		st.HitRate = float64(st.CacheHits) / float64(st.Requests)
	}
	if s.cache != nil {
		s.cacheMu.Lock()
		st.CacheLen = s.cache.len()
		s.cacheMu.Unlock()
	}
	if s.profiles != nil {
		st.ProfileHits, st.ProfileMisses = s.profiles.counters()
		st.ProfileLen = s.profiles.len()
	}
	return st
}

// enqueue admits a task or rejects with a typed error. The read-lock pairs
// with Close's write-lock so a send can never hit a closed channel.
func (s *Server) enqueue(t *task) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.draining {
		return ErrShuttingDown
	}
	// Priority shed gate: refuse best-effort traffic before the queue is
	// hard-full so premium requests keep finding slots under overload. The
	// occupancy read is advisory (len on a live channel) — the hard bound
	// below still holds regardless.
	if s.cfg.ShedThreshold > 0 && t.req.Priority > 0 &&
		float64(len(s.queue)) >= s.cfg.ShedThreshold*float64(s.cfg.QueueSize) {
		s.shed.Add(1)
		return ErrShed
	}
	select {
	case s.queue <- t:
		return nil
	default:
		s.rejects.Add(1)
		return ErrQueueFull
	}
}

// work is one worker: it takes queued tasks one at a time and answers each
// as soon as it is computed. Closing the queue drains the backlog, then
// every worker exits.
func (s *Server) work() {
	defer s.wg.Done()
	for t := range s.queue {
		s.batches.Add(1)
		n := s.running.Add(1)
		for peak := s.maxBatch.Load(); n > peak; peak = s.maxBatch.Load() {
			if s.maxBatch.CompareAndSwap(peak, n) {
				break
			}
		}
		t.done <- s.execute(t)
		s.running.Add(-1)
	}
}

// execute answers one task against the snapshot published when it is
// taken: try the cache, attach to an in-flight computation of the same key,
// or own the miss — run the prediction and publish the canonical bytes to
// the cache and every coalesced waiter. A task whose requester has already
// gone away (canceled or timed-out context) releases its worker immediately
// instead of computing a response nobody reads.
//
// Epoch monotonicity: tasks finish out of order, so a miss computed against
// an older snapshot could otherwise answer after a newer one has, and the
// router would take the node for a stale replica. Taking the snapshot at
// execution (not admission) and recomputing once when a publish supersedes
// it keeps each node's answers at the epoch current when they finish.
//
// Stats contract: each cache-eligible task counts exactly one of hits and
// misses. The flight owner counts the miss; waiters and cached reads count
// hits (waiters additionally count coalesced), so the /stats hit rate is
// hits/requests however a thundering herd interleaves. A recompute counts
// Superseded, never a second miss.
func (s *Server) execute(t *task) taskResult {
	if err := t.ctx.Err(); err != nil {
		s.canceled.Add(1)
		return taskResult{err: err}
	}
	s.retarget(t, s.snap.Load())
	if s.cache == nil {
		return s.computeLatest(t)
	}
	s.cacheMu.Lock()
	if body, ok := s.cache.get(t.key); ok {
		// Cached between admission and execution (an earlier flight landed).
		s.cacheMu.Unlock()
		s.hits.Add(1)
		return taskResult{body: body}
	}
	if f, ok := s.flights[t.key]; ok {
		// Same key already computing: wait for its bytes instead of redoing
		// the solve. The owner registered the flight while executing on
		// another worker, so a waiting worker can never deadlock the pool.
		s.cacheMu.Unlock()
		s.hits.Add(1)
		s.coalesced.Add(1)
		select {
		case <-f.done:
			return taskResult{body: f.body, err: f.err}
		case <-t.ctx.Done():
			return taskResult{err: t.ctx.Err()}
		}
	}
	flightKey := t.key
	f := &flight{done: make(chan struct{})}
	s.flights[flightKey] = f
	s.cacheMu.Unlock()
	s.misses.Add(1)

	res := s.computeLatest(t)
	s.cacheMu.Lock()
	if res.err == nil {
		s.cache.put(t.key, res.body)
	}
	// The cache entry lands before the flight is removed (both under cacheMu),
	// so at every instant a concurrent same-key request finds the bytes in
	// exactly one place.
	delete(s.flights, flightKey)
	s.cacheMu.Unlock()
	f.body, f.err = res.body, res.err
	close(f.done)
	return res
}

// retarget points a task at snap and re-derives its cache key.
func (s *Server) retarget(t *task, snap *core.Snapshot) {
	if t.snap == snap {
		return
	}
	t.snap = snap
	if s.cache != nil {
		t.key = cacheKey{epoch: snap.Epoch(), fp: t.req.fingerprint()}
	}
}

// computeLatest computes a task and, when a publish superseded its snapshot
// meanwhile, recomputes it once against the newly published one. Snapshots
// compare by pointer, so stage and revert count as publishes even when they
// keep the epoch.
func (s *Server) computeLatest(t *task) taskResult {
	res := s.compute(t)
	if cur := s.snap.Load(); cur != t.snap {
		s.superseded.Add(1)
		s.retarget(t, cur)
		res = s.compute(t)
	}
	return res
}

// meter builds the measurement service of one prediction against snap:
// Config.MeterFor's when set, else a default meter over the shared simulator
// and profile memo. A default meter measures the sandbox with
// sim.ProfileFeatures on snap's kept features, the only ones its prediction
// reads, unless snap ranks on raw metric levels, the one feature mode that
// reads the trace.
func (s *Server) meter(snap *core.Snapshot, seed uint64) oracle.Service {
	if s.cfg.MeterFor != nil {
		return s.cfg.MeterFor(seed)
	}
	m := &memoMeter{sim: s.sim, seed: seed, cache: s.profiles}
	if !snap.Config().UseRawFeatures {
		m.features = snap.KeptFeatures()
	}
	return m
}

// compute runs the uncached prediction for one task through the lineage's
// precomputed plan.
func (s *Server) compute(t *task) taskResult {
	meter := s.meter(t.snap, t.req.Seed)
	pred, err := t.snap.PredictFast(t.app, meter)
	if err != nil {
		return taskResult{err: fmt.Errorf("serve: predict %s: %w", t.req.App, err)}
	}
	body, err := s.encodeResponse(t.snap, t.req, pred, meter.SimConfig().Nodes)
	if err != nil {
		return taskResult{err: fmt.Errorf("serve: encode %s: %w", t.req.App, err)}
	}
	return taskResult{body: body}
}

// rankPool recycles the request-scoped ranking slices of encodeResponse:
// the entries live only until the response is serialized, so the backing
// arrays are reused across requests instead of churning the allocator on
// the hot path. 128 covers the full 120-VM catalog without regrowth.
var rankPool = sync.Pool{New: func() any {
	s := make([]RankEntry, 0, 128)
	return &s
}}

// encodeResponse builds the canonical response body: ranking order comes
// from the prediction (already deterministically tie-broken), floats render
// with pinned shortest-round-trip bytes, and no map ever reaches the
// encoder. The scratch ranking slice and encode buffer are pooled; only the
// returned body (which the cache may retain indefinitely) is freshly
// allocated.
func (s *Server) encodeResponse(snap *core.Snapshot, req Request, pred *core.Prediction, nodes int) ([]byte, error) {
	top := req.Top
	if top > len(pred.Ranking) {
		top = len(pred.Ranking)
	}
	rp := rankPool.Get().(*[]RankEntry)
	ranking := (*rp)[:0]
	for _, r := range pred.Ranking[:top] {
		sec := pred.PredictedSec[r.VM]
		// Prices come from the snapshot's catalog version (not a
		// construction-time index), so repricing updates reach responses the
		// moment their snapshot publishes.
		vm, _ := snap.VM(r.VM)
		ranking = append(ranking, RankEntry{
			VM:           r.VM,
			Score:        jsonFloat(r.Score),
			PredictedSec: jsonFloat(sec),
			PredictedUSD: jsonFloat(sec / 3600 * vm.PriceHour * float64(nodes)),
		})
	}
	body, err := encodeResponsePooled(&Response{
		Target:         pred.Target,
		Epoch:          snap.Epoch(),
		Workloads:      snap.Workloads(),
		CatalogVersion: snap.CatalogVersion(),
		Best:           pred.Best.Name,
		Converged:      pred.Converged,
		MatchDistance:  jsonFloat(pred.MatchDistance),
		OnlineRuns:     pred.OnlineRuns,
		Ranking:        ranking,
	})
	*rp = ranking[:0]
	rankPool.Put(rp)
	return body, err
}
