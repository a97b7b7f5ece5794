// Package bipartite implements the two-layer bipartite graph of Section 3.2:
// a workload-label layer and a label-VM layer. Edges from source workloads
// (the paper's blue edges) are the abstracted knowledge; edges from target
// workloads (red edges) are drawn later by the transfer-learning step and
// represent reused knowledge.
package bipartite

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"vesta/internal/mat"
)

// Kind distinguishes knowledge edges (source) from transferred edges
// (target) in the workload-label layer.
type Kind int

// Edge kinds, mirroring the blue/red edges of Figure 4.
const (
	SourceEdge Kind = iota // blue: abstracted knowledge
	TargetEdge             // red: reused knowledge
)

// Graph is the two-layer bipartite knowledge graph.
type Graph struct {
	workloads []string
	labels    []string
	vms       []string

	wIndex map[string]int
	lIndex map[string]int
	vIndex map[string]int

	isSource []bool // per workload

	// wl is the workload-label layer (G^XL union G^X*L), |W| x |L|.
	wl *mat.Matrix
	// lv is the label-VM layer (G^LT), |L| x |V|.
	lv *mat.Matrix
}

// New builds an empty graph over the given label and VM vocabularies.
func New(labels, vms []string) (*Graph, error) {
	if len(labels) == 0 || len(vms) == 0 {
		return nil, fmt.Errorf("bipartite: need at least one label and one VM")
	}
	g := &Graph{
		labels: append([]string(nil), labels...),
		vms:    append([]string(nil), vms...),
		wIndex: map[string]int{},
		lIndex: map[string]int{},
		vIndex: map[string]int{},
		wl:     mat.New(0, len(labels)),
		lv:     mat.New(len(labels), len(vms)),
	}
	for i, l := range labels {
		if _, dup := g.lIndex[l]; dup {
			return nil, fmt.Errorf("bipartite: duplicate label %q", l)
		}
		g.lIndex[l] = i
	}
	for i, v := range vms {
		if _, dup := g.vIndex[v]; dup {
			return nil, fmt.Errorf("bipartite: duplicate VM %q", v)
		}
		g.vIndex[v] = i
	}
	return g, nil
}

// Labels returns the label vocabulary.
func (g *Graph) Labels() []string { return append([]string(nil), g.labels...) }

// VMs returns the VM vocabulary.
func (g *Graph) VMs() []string { return append([]string(nil), g.vms...) }

// Workloads returns the workload nodes in insertion order.
func (g *Graph) Workloads() []string { return append([]string(nil), g.workloads...) }

// HasWorkload reports whether a workload node with the given name exists.
func (g *Graph) HasWorkload(name string) bool {
	_, ok := g.wIndex[name]
	return ok
}

// AddWorkload inserts a workload node with its label-affinity row (length
// = len(labels)). Re-adding a workload replaces its row and kind.
func (g *Graph) AddWorkload(name string, kind Kind, labelWeights []float64) error {
	if len(labelWeights) != len(g.labels) {
		return fmt.Errorf("bipartite: workload %q has %d label weights, want %d",
			name, len(labelWeights), len(g.labels))
	}
	if idx, ok := g.wIndex[name]; ok {
		g.wl.SetRow(idx, labelWeights)
		g.isSource[idx] = kind == SourceEdge
		return nil
	}
	idx := len(g.workloads)
	g.workloads = append(g.workloads, name)
	g.wIndex[name] = idx
	g.isSource = append(g.isSource, kind == SourceEdge)
	grown := mat.New(idx+1, len(g.labels))
	copy(grown.Data, g.wl.Data)
	grown.SetRow(idx, labelWeights)
	g.wl = grown
	return nil
}

// SetLabelVM assigns the affinity of a label to a VM type in the label-VM
// layer.
func (g *Graph) SetLabelVM(label, vm string, weight float64) error {
	li, ok := g.lIndex[label]
	if !ok {
		return fmt.Errorf("bipartite: unknown label %q", label)
	}
	vi, ok := g.vIndex[vm]
	if !ok {
		return fmt.Errorf("bipartite: unknown VM %q", vm)
	}
	g.lv.Set(li, vi, weight)
	return nil
}

// LabelVM returns the label-VM affinity.
func (g *Graph) LabelVM(label, vm string) (float64, error) {
	li, ok := g.lIndex[label]
	if !ok {
		return 0, fmt.Errorf("bipartite: unknown label %q", label)
	}
	vi, ok := g.vIndex[vm]
	if !ok {
		return 0, fmt.Errorf("bipartite: unknown VM %q", vm)
	}
	return g.lv.At(li, vi), nil
}

// WorkloadLabels returns the label-weight row of a workload.
func (g *Graph) WorkloadLabels(name string) ([]float64, error) {
	idx, ok := g.wIndex[name]
	if !ok {
		return nil, fmt.Errorf("bipartite: unknown workload %q", name)
	}
	return g.wl.Row(idx), nil
}

// IsSource reports whether the workload's edges are knowledge (blue) edges.
func (g *Graph) IsSource(name string) (bool, error) {
	idx, ok := g.wIndex[name]
	if !ok {
		return false, fmt.Errorf("bipartite: unknown workload %q", name)
	}
	return g.isSource[idx], nil
}

// VMScore is a VM type with its propagated affinity score.
type VMScore struct {
	VM    string
	Score float64
}

// ScoreVMs propagates a workload's label weights through the label-VM layer
// and returns every VM with its score, best first (ties broken by name for
// determinism). This is the graph walk that turns transferred knowledge
// into a VM ranking.
func (g *Graph) ScoreVMs(name string) ([]VMScore, error) {
	row, err := g.WorkloadLabels(name)
	if err != nil {
		return nil, err
	}
	return g.ScoreVMsFromWeights(row), nil
}

// ScoreVMsFromWeights ranks VMs for an explicit label-weight vector.
func (g *Graph) ScoreVMsFromWeights(labelWeights []float64) []VMScore {
	scores := make([]VMScore, len(g.vms))
	for vi, vm := range g.vms {
		s := 0.0
		for li := range g.labels {
			s += labelWeights[li] * g.lv.At(li, vi)
		}
		scores[vi] = VMScore{VM: vm, Score: s}
	}
	slices.SortFunc(scores, ByScore)
	return scores
}

// ByScore orders VM scores best first, ties broken by name: the comparison
// reports a before b exactly when a's score is higher, or equal with a
// smaller name. Every VM ranking, adapted catalogs included, uses it.
func ByScore(a, b VMScore) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return strings.Compare(a.VM, b.VM)
}

// WL returns a copy of the workload-label matrix (rows follow Workloads()).
func (g *Graph) WL() *mat.Matrix { return g.wl.Clone() }

// LV returns a copy of the label-VM matrix.
func (g *Graph) LV() *mat.Matrix { return g.lv.Clone() }

// Stats summarizes the graph for reports.
type Stats struct {
	Workloads, Labels, VMs   int
	SourceEdges, TargetEdges int // nonzero workload-label edges by kind
	LabelVMEdges             int
	MeanLabelsPerWorkload    float64
}

// Stats computes edge statistics, counting edges with weight above eps.
func (g *Graph) Stats(eps float64) Stats {
	st := Stats{Workloads: len(g.workloads), Labels: len(g.labels), VMs: len(g.vms)}
	totalLabels := 0
	for wi := range g.workloads {
		for li := range g.labels {
			if g.wl.At(wi, li) > eps {
				totalLabels++
				if g.isSource[wi] {
					st.SourceEdges++
				} else {
					st.TargetEdges++
				}
			}
		}
	}
	for li := range g.labels {
		for vi := range g.vms {
			if g.lv.At(li, vi) > eps {
				st.LabelVMEdges++
			}
		}
	}
	if len(g.workloads) > 0 {
		st.MeanLabelsPerWorkload = float64(totalLabels) / float64(len(g.workloads))
	}
	return st
}

// Clone returns a deep copy of the graph. Mutations on either copy
// (AddWorkload, SetLabelVM) never reach the other, which is what lets a
// published serving snapshot stay immutable while the original keeps
// absorbing targets.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		workloads: append([]string(nil), g.workloads...),
		labels:    append([]string(nil), g.labels...),
		vms:       append([]string(nil), g.vms...),
		wIndex:    make(map[string]int, len(g.wIndex)),
		lIndex:    make(map[string]int, len(g.lIndex)),
		vIndex:    make(map[string]int, len(g.vIndex)),
		isSource:  append([]bool(nil), g.isSource...),
		wl:        g.wl.Clone(),
		lv:        g.lv.Clone(),
	}
	for k, v := range g.wIndex {
		c.wIndex[k] = v
	}
	for k, v := range g.lIndex {
		c.lIndex[k] = v
	}
	for k, v := range g.vIndex {
		c.vIndex[k] = v
	}
	return c
}

// jsonGraph is the serialization schema.
type jsonGraph struct {
	Workloads []string    `json:"workloads"`
	Labels    []string    `json:"labels"`
	VMs       []string    `json:"vms"`
	IsSource  []bool      `json:"is_source"`
	WL        [][]float64 `json:"workload_label"`
	LV        [][]float64 `json:"label_vm"`
}

// MarshalJSON implements json.Marshaler so knowledge can be persisted.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{
		Workloads: g.workloads, Labels: g.labels, VMs: g.vms, IsSource: g.isSource,
	}
	for wi := range g.workloads {
		jg.WL = append(jg.WL, g.wl.Row(wi))
	}
	for li := range g.labels {
		jg.LV = append(jg.LV, g.lv.Row(li))
	}
	return json.Marshal(jg)
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	ng, err := New(jg.Labels, jg.VMs)
	if err != nil {
		return err
	}
	if len(jg.IsSource) != len(jg.Workloads) || len(jg.WL) != len(jg.Workloads) {
		return fmt.Errorf("bipartite: inconsistent serialized graph")
	}
	for i, w := range jg.Workloads {
		kind := TargetEdge
		if jg.IsSource[i] {
			kind = SourceEdge
		}
		if err := ng.AddWorkload(w, kind, jg.WL[i]); err != nil {
			return err
		}
	}
	if len(jg.LV) != len(jg.Labels) {
		return fmt.Errorf("bipartite: label-VM layer has %d rows, want %d", len(jg.LV), len(jg.Labels))
	}
	for li, row := range jg.LV {
		if len(row) != len(jg.VMs) {
			return fmt.Errorf("bipartite: label-VM row %d has %d cols, want %d", li, len(row), len(jg.VMs))
		}
		for vi, w := range row {
			ng.lv.Set(li, vi, w)
		}
	}
	*g = *ng
	return nil
}
