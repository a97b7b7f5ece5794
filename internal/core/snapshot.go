// Snapshot extraction: the serving layer (internal/serve) publishes trained
// state to many concurrent readers through an atomic pointer, so the state
// it publishes must be immutable. A Snapshot is a self-contained deep copy
// of a trained System — predictions against it are read-only, and updates
// (absorbing a completed target) produce a *new* Snapshot copy-on-write
// instead of mutating the published one.
package core

import (
	"fmt"

	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// Snapshot is an immutable copy of a trained system, stamped with an epoch.
// Epoch 0 is the snapshot taken from the trained (or loaded) system; every
// Absorb increments it. All methods are safe for concurrent use: PredictFast
// never writes, and Absorb writes only to a fresh deep copy.
type Snapshot struct {
	sys   *System
	epoch uint64
}

// Snapshot captures the system's trained state as an immutable snapshot at
// epoch 0. Later mutations of the system (AbsorbTarget, retraining) do not
// reach the snapshot, and vice versa.
func (s *System) Snapshot() (*Snapshot, error) {
	if s.knowledge == nil {
		return nil, fmt.Errorf("vesta: Snapshot before TrainOffline")
	}
	return &Snapshot{sys: s.cloneForSnapshot(), epoch: 0}, nil
}

// cloneForSnapshot deep-copies the parts of the system that any mutation
// path writes to. The PCA result, measurement tables, and source rows are
// write-once after training, so the clones share them; the graph and the
// K-Means model are rewritten by AbsorbTarget and must be owned. The plan
// holder is shared: every snapshot descended from the same trained
// knowledge points at it, because neither Absorb nor AbsorbCatalog changes
// the source matrices the plan is built from.
func (s *System) cloneForSnapshot() *System {
	k := s.knowledge
	byName := make(map[string]cloud.VMType, len(s.byName))
	for n, v := range s.byName {
		byName[n] = v
	}
	kc := *k
	kc.Graph = k.Graph.Clone()
	kc.KM = k.KM.Clone()
	return &System{
		cfg:        s.cfg,
		catalog:    append([]cloud.VMType(nil), s.catalog...),
		byName:     byName,
		catVersion: s.catVersion,
		trained:    s.trained, // write-once at New; shared across the lineage
		knowledge:  &kc,
		plan:       s.plan,
	}
}

// Epoch returns the snapshot's publication epoch.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Workloads returns the number of workload nodes in the snapshot's knowledge
// graph. Together with the epoch and catalog version it forms the
// consistency token the serving layer stamps into every response: every
// epoch increment is either an Absorb (workloads +1) or an AbsorbCatalog
// (catalog version +1), so a lineage over a base of b sources always
// reports exactly b + (epoch-baseEpoch) - (catVersion-baseCatVersion)
// workloads, and a torn or half-published snapshot is detectable from any
// single response.
func (sn *Snapshot) Workloads() int {
	return len(sn.sys.knowledge.Graph.Workloads())
}

// HasWorkload reports whether name is already a workload node in the
// snapshot's knowledge graph — the duplicate check Absorb enforces, exposed
// so callers can reject early with a typed error.
func (sn *Snapshot) HasWorkload(name string) bool {
	return sn.sys.knowledge.Graph.HasWorkload(name)
}

// Config returns the effective configuration frozen into the snapshot.
func (sn *Snapshot) Config() Config { return sn.sys.cfg }

// SandboxWant is what a prediction against the snapshot reads of its
// sandbox measurement: the correlation features the knowledge kept after
// PCA pruning, the only components of the vector it projects onto. A
// snapshot that ranks on raw metric levels reads the measurement's trace,
// not its vector; it asks for every feature and the trace, the full
// measurement.
func (sn *Snapshot) SandboxWant() sim.Want {
	if sn.sys.cfg.UseRawFeatures {
		return sim.Want{Features: metrics.AllFeatures, Trace: true}
	}
	return sim.Want{Features: metrics.FeaturesOf(sn.sys.knowledge.Kept)}
}

// Catalog returns a copy of the VM catalog frozen into the snapshot.
func (sn *Snapshot) Catalog() []cloud.VMType {
	return append([]cloud.VMType(nil), sn.sys.catalog...)
}

// CatalogVersion returns the catalog version the snapshot ranks against:
// 0 for the construction-time catalog, incremented by every AbsorbCatalog.
// Together with the epoch it extends the consistency token — a catalog
// update advances the epoch without growing the workload set, so workloads
// = base + (epoch - baseEpoch) - (catalogVersion - baseCatalogVersion)
// along any lineage.
func (sn *Snapshot) CatalogVersion() uint64 { return sn.sys.catVersion }

// VM returns the named type from the snapshot's current catalog version.
// Serving layers use this (not a construction-time index) so prices follow
// repricing updates.
func (sn *Snapshot) VM(name string) (cloud.VMType, bool) {
	v, ok := sn.sys.byName[name]
	return v, ok
}

// PredictFast runs the online predicting phase (System.PredictOnline)
// against the frozen knowledge: the target row is folded in against the
// lineage's precomputed plan in closed form (one small linear solve, no CMF
// rng). It is read-only with respect to the snapshot: any number of
// PredictFast calls may run concurrently with each other and with Absorb on
// the same snapshot. The result is a pure function of (snapshot, target,
// meter stream) — the same bytes at any concurrency, whether the plan was
// built eagerly, lazily, or decoded from a checkpoint. A fold-in that fails
// falls back to the sandbox memberships with Converged false.
//
// The first prediction of a lineage builds the plan (one cold solve);
// concurrent callers block on that build and then share it.
func (sn *Snapshot) PredictFast(target workload.App, meter oracle.Service) (*Prediction, error) {
	return sn.sys.PredictOnline(target, meter)
}

// PreparePlan forces the lineage's plan to exist (the same build PredictFast
// triggers lazily), so a server can pay the one-time cold solve at publish
// time instead of on the first request. Safe to call repeatedly.
func (sn *Snapshot) PreparePlan() error {
	_, err := sn.sys.plan.get(sn.sys)
	return err
}

// PlanReady reports whether the lineage's precomputed plan is already built —
// eagerly via PreparePlan, lazily by a PredictFast, or restored from an
// encoded checkpoint. A recovered checkpoint that carried the plan field
// reports true without ever paying the plan solve.
func (sn *Snapshot) PlanReady() bool { return sn.sys.plan.peek() != nil }

// Absorb returns a new snapshot, one epoch later, with the completed target
// recorded in the knowledge graph (AbsorbTarget semantics). The receiver is
// untouched — in-flight predictions against it keep their consistent view —
// and the caller publishes the returned snapshot when ready.
//
// Unlike System.AbsorbTarget, Absorb rejects a name already present in the
// graph: an upsert would advance the epoch without growing the workload set,
// silently breaking the b+e consistency token documented on Workloads.
func (sn *Snapshot) Absorb(name string, labelWeights, prunedVec []float64) (*Snapshot, error) {
	if sn.sys.knowledge.Graph.HasWorkload(name) {
		return nil, fmt.Errorf("vesta: absorb: workload %q already in the knowledge graph", name)
	}
	clone := sn.sys.cloneForSnapshot()
	if err := clone.AbsorbTarget(name, labelWeights, prunedVec); err != nil {
		return nil, err
	}
	return &Snapshot{sys: clone, epoch: sn.epoch + 1}, nil
}

// AbsorbCatalog returns a new snapshot, one epoch and one catalog version
// later, selecting against the updated catalog. The learned knowledge is
// untouched — the graph's VM vocabulary stays at its training set and
// rankings are projected onto the new catalog per adaptRanking — so, like
// Absorb, the receiver keeps serving its consistent view while the caller
// publishes the successor. The update is validated against the catalog
// invariants (cloud.Versioned.Apply); retiring the sandbox VM is refused
// because every online prediction starts with a sandbox run.
func (sn *Snapshot) AbsorbCatalog(up cloud.Update) (*Snapshot, error) {
	cur, err := cloud.VersionedAt(sn.sys.catalog, sn.sys.catVersion)
	if err != nil {
		return nil, fmt.Errorf("vesta: current catalog invalid: %w", err)
	}
	next, err := cur.Apply(up)
	if err != nil {
		return nil, fmt.Errorf("vesta: absorb catalog: %w", err)
	}
	if _, ok := next.Find(sn.sys.cfg.SandboxVM); !ok {
		return nil, fmt.Errorf("vesta: absorb catalog: update retires sandbox VM %q", sn.sys.cfg.SandboxVM)
	}
	clone := sn.sys.cloneForSnapshot()
	clone.catalog = next.Types()
	clone.byName = cloud.ByName(clone.catalog)
	clone.catVersion = next.Version()
	return &Snapshot{sys: clone, epoch: sn.epoch + 1}, nil
}
