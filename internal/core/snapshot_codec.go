// Snapshot serialization: the durable serving layer (internal/wal) persists
// the published snapshot into checksummed checkpoints and must restore it —
// epoch included — after a crash. The codec reuses the knowledge schema of
// persist.go and adds the epoch, so a decoded snapshot is indistinguishable
// from the one that was encoded: same consistency token (epoch, workloads),
// byte-identical predictions, and the same behaviour under further Absorbs
// (AbsorbTarget refits K-Means from the persisted source vectors).
package core

import (
	"encoding/json"
	"fmt"
	"io"

	"vesta/internal/cloud"
	"vesta/internal/mat"
)

// snapshotJSON is the serialization schema of a Snapshot: the publication
// epoch plus the knowledge schema shared with SaveKnowledge/LoadKnowledge,
// and (since the precomputed-ranking release) the lineage's predict plan.
// Plan is optional both ways for compatibility: checkpoints written before
// the field existed decode fine (the plan rebuilds lazily on first
// PredictFast), and a malformed-but-absent field never blocks recovery of
// the knowledge itself.
type snapshotJSON struct {
	Epoch uint64 `json:"epoch"`
	// CatalogVersion and Catalog persist an evolved catalog (absorbed
	// catalog updates, DESIGN.md §14). Both are omitted at version 0 — the
	// catalog is then the construction-time one the decoder already holds —
	// so checkpoints written before catalogs were versioned decode
	// unchanged, and unversioned state encodes to its historical bytes.
	CatalogVersion uint64         `json:"catalog_version,omitempty"`
	Catalog        []cloud.VMType `json:"catalog,omitempty"`
	Knowledge      knowledgeJSON  `json:"knowledge"`
	Plan           *planJSON      `json:"plan,omitempty"`
}

// planJSON serializes the expensive part of a predictPlan: the converged
// factors of the plan solve. Requests read only the label factors L; the
// source factors X, T and the epoch count ride along so the field keeps the
// format earlier releases write and read — a checkpoint stays byte-identical
// across the upgrade, and an earlier binary can still restart from one this
// release wrote. The matrices u/lv and the observed-cell indexes are cheap
// pure functions of the knowledge and are not stored.
type planJSON struct {
	X      [][]float64 `json:"x"`
	T      [][]float64 `json:"t"`
	L      [][]float64 `json:"l"`
	Epochs int         `json:"epochs"`
}

func matrixRows(m *mat.Matrix) [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// Encode writes the snapshot's state to w as deterministic JSON: field order
// follows the schema structs and map keys are sorted by encoding/json, so
// equal snapshots encode to equal bytes — the property the crash-recovery
// tests use as a state fingerprint. Encode forces the lineage's plan to
// exist first (it is a pure function of the state being encoded, so this
// keeps the bytes deterministic regardless of whether a request already
// built it) and persists its factors, so a recovered server skips the plan
// solve entirely.
func (sn *Snapshot) Encode(w io.Writer) error {
	sj := snapshotJSON{Epoch: sn.epoch, Knowledge: knowledgeToJSON(sn.sys.knowledge)}
	if sn.sys.catVersion > 0 {
		sj.CatalogVersion = sn.sys.catVersion
		sj.Catalog = sn.sys.catalog
	}
	if plan, err := sn.sys.plan.get(sn.sys); err == nil {
		sj.Plan = &planJSON{
			X:      matrixRows(plan.x),
			T:      matrixRows(plan.t),
			L:      matrixRows(plan.l),
			Epochs: plan.epochs,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(sj)
}

// DecodeSnapshot reconstructs an encoded snapshot. cfg and catalog play the
// role they play in New: the catalog must contain every VM the knowledge
// references, and cfg carries the seed the absorb-time K-Means refits draw
// from — pass the same configuration the encoding system ran with, or
// recovered state will diverge from the pre-crash state on the next Absorb.
func DecodeSnapshot(r io.Reader, cfg Config, catalog []cloud.VMType) (*Snapshot, error) {
	var sj snapshotJSON
	if err := json.NewDecoder(r).Decode(&sj); err != nil {
		return nil, fmt.Errorf("vesta: decoding snapshot: %w", err)
	}
	sys, err := New(cfg, catalog)
	if err != nil {
		return nil, err
	}
	if err := sys.setKnowledgeFromJSON(sj.Knowledge); err != nil {
		return nil, err
	}
	sn, err := sys.Snapshot()
	if err != nil {
		return nil, err
	}
	sn.epoch = sj.Epoch
	if sj.CatalogVersion > 0 {
		// The snapshot carried an evolved catalog: validate and install it
		// over the construction-time one. The trained index (and the
		// knowledge validated against it above) stays anchored to the base
		// catalog, exactly as in the encoding lineage.
		vc, err := cloud.VersionedAt(sj.Catalog, sj.CatalogVersion)
		if err != nil {
			return nil, fmt.Errorf("vesta: decoding snapshot catalog: %w", err)
		}
		if _, ok := vc.Find(sn.sys.cfg.SandboxVM); !ok {
			return nil, fmt.Errorf("vesta: decoding snapshot: catalog version %d lacks sandbox VM %q",
				sj.CatalogVersion, sn.sys.cfg.SandboxVM)
		}
		sn.sys.catalog = vc.Types()
		sn.sys.byName = cloud.ByName(sn.sys.catalog)
		sn.sys.catVersion = sj.CatalogVersion
	}
	if sj.Plan != nil {
		plan, err := sn.sys.restorePlan(sj.Plan)
		if err != nil {
			return nil, err
		}
		sn.sys.plan = &planHolder{done: true, plan: plan}
	}
	return sn, nil
}
