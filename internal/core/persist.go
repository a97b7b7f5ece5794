// Knowledge persistence: the offline phase is expensive (every source
// workload on every VM type), so its result — the abstracted knowledge — is
// serializable. The paper stores collector output in MySQL; we persist the
// distilled knowledge as JSON (DESIGN.md substitution).
package core

import (
	"encoding/json"
	"fmt"
	"io"

	"vesta/internal/bipartite"
	"vesta/internal/kmeans"
	"vesta/internal/metrics"
)

// knowledgeJSON is the serialization schema for Knowledge. The PCA result is
// not persisted: prediction only needs the kept feature indices.
type knowledgeJSON struct {
	Labels            []string                      `json:"labels"`
	Kept              []int                         `json:"kept_features"`
	Centroids         [][]float64                   `json:"kmeans_centroids"`
	Graph             *bipartite.Graph              `json:"graph"`
	SourceNames       []string                      `json:"source_names"`
	SourceVecs        [][]float64                   `json:"source_vectors"`
	SourceMemberships [][]float64                   `json:"source_memberships"`
	Sigma             float64                       `json:"sigma"`
	BestTimes         map[string]float64            `json:"best_times"`
	Times             map[string]map[string]float64 `json:"times"`
	OfflineRuns       int                           `json:"offline_runs"`
}

// knowledgeToJSON projects the trained knowledge onto its serialization
// schema. Shared by SaveKnowledge and the snapshot codec.
func knowledgeToJSON(k *Knowledge) knowledgeJSON {
	return knowledgeJSON{
		Labels: k.Labels, Kept: k.Kept, Centroids: k.KM.Centroids,
		Graph: k.Graph, SourceNames: k.SourceNames, SourceVecs: k.SourceVecs,
		SourceMemberships: k.SourceMemberships, Sigma: k.Sigma,
		BestTimes: k.BestTimes, Times: k.Times, OfflineRuns: k.OfflineRuns,
	}
}

// setKnowledgeFromJSON validates a decoded schema against the system's
// catalog and installs it as the trained state. Shared by LoadKnowledge and
// the snapshot codec.
func (s *System) setKnowledgeFromJSON(kj knowledgeJSON) error {
	if len(kj.Labels) == 0 || len(kj.Centroids) == 0 || kj.Graph == nil {
		return fmt.Errorf("vesta: knowledge file is incomplete")
	}
	if len(kj.SourceNames) != len(kj.SourceVecs) || len(kj.SourceNames) != len(kj.SourceMemberships) {
		return fmt.Errorf("vesta: knowledge source rows are inconsistent")
	}
	for _, vm := range kj.Graph.VMs() {
		if _, ok := s.byName[vm]; !ok {
			return fmt.Errorf("vesta: knowledge references VM %q not in this catalog", vm)
		}
	}
	if len(kj.Centroids) != len(kj.Labels) {
		return fmt.Errorf("vesta: %d centroids for %d labels", len(kj.Centroids), len(kj.Labels))
	}
	if n := len(kj.Graph.Labels()); n != len(kj.Labels) {
		return fmt.Errorf("vesta: knowledge graph has %d labels, knowledge %d", n, len(kj.Labels))
	}
	// Every matrix must be rectangular in the dimensions prediction indexes
	// it with, so malformed bytes fail here instead of panicking later.
	featureDim := metrics.NumCorrelations
	if s.cfg.UseRawFeatures {
		featureDim = int(metrics.NumSeries)
	}
	if len(kj.Kept) == 0 {
		return fmt.Errorf("vesta: knowledge keeps no features")
	}
	for _, f := range kj.Kept {
		if f < 0 || f >= featureDim {
			return fmt.Errorf("vesta: kept feature %d outside the %d-feature vector", f, featureDim)
		}
	}
	if err := checkRows("kmeans centroid", kj.Centroids, len(kj.Kept)); err != nil {
		return err
	}
	if err := checkRows("source vector", kj.SourceVecs, len(kj.Kept)); err != nil {
		return err
	}
	if err := checkRows("source membership", kj.SourceMemberships, len(kj.Labels)); err != nil {
		return err
	}
	km := &kmeans.Model{K: len(kj.Centroids), Centroids: kj.Centroids}
	s.setKnowledge(&Knowledge{
		Labels: kj.Labels, Kept: kj.Kept, KM: km, Graph: kj.Graph,
		SourceNames: kj.SourceNames, SourceVecs: kj.SourceVecs,
		SourceMemberships: kj.SourceMemberships, Sigma: kj.Sigma,
		BestTimes: kj.BestTimes, Times: kj.Times, OfflineRuns: kj.OfflineRuns,
	})
	// Keep the configured K consistent with the loaded model.
	s.cfg.K = km.K
	return nil
}

// checkRows reports an error unless every row has exactly cols entries.
func checkRows(name string, rows [][]float64, cols int) error {
	for i, r := range rows {
		if len(r) != cols {
			return fmt.Errorf("vesta: %s row %d has %d entries, want %d", name, i, len(r), cols)
		}
	}
	return nil
}

// SaveKnowledge writes the trained knowledge to w as JSON. It fails if the
// system has not been trained.
func (s *System) SaveKnowledge(w io.Writer) error {
	if s.knowledge == nil {
		return fmt.Errorf("vesta: SaveKnowledge before TrainOffline")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(knowledgeToJSON(s.knowledge))
}

// LoadKnowledge restores previously saved knowledge into the system,
// replacing any trained state. The system's catalog must contain every VM
// the knowledge references.
func (s *System) LoadKnowledge(r io.Reader) error {
	var kj knowledgeJSON
	if err := json.NewDecoder(r).Decode(&kj); err != nil {
		return fmt.Errorf("vesta: decoding knowledge: %w", err)
	}
	return s.setKnowledgeFromJSON(kj)
}
