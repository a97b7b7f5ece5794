package bipartite

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"
)

func newTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := New([]string{"l1", "l2", "l3"}, []string{"vmA", "vmB"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, []string{"v"}); err == nil {
		t.Fatal("empty labels accepted")
	}
	if _, err := New([]string{"l"}, nil); err == nil {
		t.Fatal("empty VMs accepted")
	}
	if _, err := New([]string{"l", "l"}, []string{"v"}); err == nil {
		t.Fatal("duplicate labels accepted")
	}
	if _, err := New([]string{"l"}, []string{"v", "v"}); err == nil {
		t.Fatal("duplicate VMs accepted")
	}
}

func TestAddWorkloadAndLookup(t *testing.T) {
	g := newTestGraph(t)
	if err := g.AddWorkload("w1", SourceEdge, []float64{1, 0, 0.5}); err != nil {
		t.Fatal(err)
	}
	row, err := g.WorkloadLabels("w1")
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 1 || row[2] != 0.5 {
		t.Fatalf("row = %v", row)
	}
	src, err := g.IsSource("w1")
	if err != nil || !src {
		t.Fatalf("IsSource = %v, %v", src, err)
	}
	if err := g.AddWorkload("w1", TargetEdge, []float64{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	row, _ = g.WorkloadLabels("w1")
	if row[1] != 1 || row[0] != 0 {
		t.Fatal("re-add did not replace row")
	}
	if src, _ := g.IsSource("w1"); src {
		t.Fatal("re-add did not update kind")
	}
	if len(g.Workloads()) != 1 {
		t.Fatal("re-add duplicated workload node")
	}
}

func TestAddWorkloadDimError(t *testing.T) {
	g := newTestGraph(t)
	if err := g.AddWorkload("w", SourceEdge, []float64{1}); err == nil {
		t.Fatal("wrong-length weights accepted")
	}
}

func TestUnknownLookups(t *testing.T) {
	g := newTestGraph(t)
	if _, err := g.WorkloadLabels("nope"); err == nil {
		t.Fatal("unknown workload lookup succeeded")
	}
	if _, err := g.IsSource("nope"); err == nil {
		t.Fatal("unknown IsSource succeeded")
	}
	if err := g.SetLabelVM("nope", "vmA", 1); err == nil {
		t.Fatal("unknown label accepted")
	}
	if err := g.SetLabelVM("l1", "nope", 1); err == nil {
		t.Fatal("unknown VM accepted")
	}
	if _, err := g.LabelVM("nope", "vmA"); err == nil {
		t.Fatal("unknown LabelVM label accepted")
	}
	if _, err := g.ScoreVMs("nope"); err == nil {
		t.Fatal("unknown ScoreVMs accepted")
	}
}

func TestScoreVMsPropagation(t *testing.T) {
	g := newTestGraph(t)
	// l1 strongly favors vmA; l2 favors vmB.
	must(t, g.SetLabelVM("l1", "vmA", 0.9))
	must(t, g.SetLabelVM("l1", "vmB", 0.1))
	must(t, g.SetLabelVM("l2", "vmA", 0.2))
	must(t, g.SetLabelVM("l2", "vmB", 0.8))
	must(t, g.AddWorkload("wantsA", SourceEdge, []float64{1, 0, 0}))
	must(t, g.AddWorkload("wantsB", TargetEdge, []float64{0, 1, 0}))
	must(t, g.AddWorkload("mixed", TargetEdge, []float64{0.5, 0.5, 0}))

	sa, err := g.ScoreVMs("wantsA")
	if err != nil {
		t.Fatal(err)
	}
	if sa[0].VM != "vmA" {
		t.Fatalf("wantsA best = %s", sa[0].VM)
	}
	sb, _ := g.ScoreVMs("wantsB")
	if sb[0].VM != "vmB" {
		t.Fatalf("wantsB best = %s", sb[0].VM)
	}
	sm, _ := g.ScoreVMs("mixed")
	// 0.5*0.9 + 0.5*0.2 = 0.55 vs 0.5*0.1 + 0.5*0.8 = 0.45.
	if sm[0].VM != "vmA" {
		t.Fatalf("mixed best = %s", sm[0].VM)
	}
}

func TestScoreDeterministicTieBreak(t *testing.T) {
	g := newTestGraph(t)
	must(t, g.AddWorkload("w", SourceEdge, []float64{1, 1, 1}))
	// All scores zero: ties broken alphabetically.
	s, _ := g.ScoreVMs("w")
	if s[0].VM != "vmA" || s[1].VM != "vmB" {
		t.Fatalf("tie-break order = %v", s)
	}
}

func TestStats(t *testing.T) {
	g := newTestGraph(t)
	must(t, g.AddWorkload("s1", SourceEdge, []float64{1, 0.5, 0}))
	must(t, g.AddWorkload("t1", TargetEdge, []float64{0, 0, 0.7}))
	must(t, g.SetLabelVM("l1", "vmA", 0.9))
	st := g.Stats(0.01)
	if st.Workloads != 2 || st.Labels != 3 || st.VMs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SourceEdges != 2 || st.TargetEdges != 1 || st.LabelVMEdges != 1 {
		t.Fatalf("edge counts = %+v", st)
	}
	if st.MeanLabelsPerWorkload != 1.5 {
		t.Fatalf("mean labels = %v", st.MeanLabelsPerWorkload)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := newTestGraph(t)
	must(t, g.AddWorkload("s1", SourceEdge, []float64{1, 0, 0.25}))
	must(t, g.AddWorkload("t1", TargetEdge, []float64{0, 0.75, 0}))
	must(t, g.SetLabelVM("l2", "vmB", 0.6))

	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Workloads(); len(got) != 2 || got[0] != "s1" {
		t.Fatalf("workloads = %v", got)
	}
	row, err := back.WorkloadLabels("t1")
	if err != nil || row[1] != 0.75 {
		t.Fatalf("t1 row = %v, %v", row, err)
	}
	if src, _ := back.IsSource("s1"); !src {
		t.Fatal("s1 lost source kind")
	}
	if src, _ := back.IsSource("t1"); src {
		t.Fatal("t1 gained source kind")
	}
	w, err := back.LabelVM("l2", "vmB")
	if err != nil || w != 0.6 {
		t.Fatalf("LabelVM = %v, %v", w, err)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"labels":["l"],"vms":["v"],"workloads":["w"],"is_source":[],"workload_label":[],"label_vm":[[0]]}`), &g); err == nil {
		t.Fatal("inconsistent graph accepted")
	}
	if err := json.Unmarshal([]byte(`{not json`), &g); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestMatrixCopiesAreDetached(t *testing.T) {
	g := newTestGraph(t)
	must(t, g.AddWorkload("w", SourceEdge, []float64{1, 2, 3}))
	wl := g.WL()
	wl.Set(0, 0, 99)
	row, _ := g.WorkloadLabels("w")
	if row[0] == 99 {
		t.Fatal("WL() exposed internal state")
	}
	lv := g.LV()
	lv.Set(0, 0, 99)
	if w, _ := g.LabelVM("l1", "vmA"); w == 99 {
		t.Fatal("LV() exposed internal state")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestScoreOrderMatchesSortSlice: ScoreVMsFromWeights orders exactly as the
// sort.Slice comparison it replaced, on a graph built for ties: 64 VMs
// added in scrambled name order whose label weights take three values, so
// many VMs share a score and the name tiebreak decides, plus all-zero and
// NaN weights, where every score ties.
func TestScoreOrderMatchesSortSlice(t *testing.T) {
	labels := []string{"l0", "l1", "l2", "l3"}
	var vms []string
	for i := 0; i < 64; i++ {
		vms = append(vms, fmt.Sprintf("vm%02d", (i*37)%64))
	}
	g, err := New(labels, vms)
	must(t, err)
	for i, vm := range vms {
		for j, l := range labels {
			must(t, g.SetLabelVM(l, vm, float64((i*7+j*3)%3)*0.25))
		}
	}
	weights := [][]float64{
		{1, 0, 0, 0}, {0.5, 0.5, 0, 0}, {0.25, 0.25, 0.25, 0.25}, {0, 0, 0, 1},
		{0, 0, 0, 0}, {math.NaN(), 0, 0, 0},
	}
	for _, w := range weights {
		want := make([]VMScore, len(vms))
		for vi, vm := range vms {
			s := 0.0
			for li := range labels {
				s += w[li] * g.lv.At(li, vi)
			}
			want[vi] = VMScore{VM: vm, Score: s}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].Score != want[b].Score {
				return want[a].Score > want[b].Score
			}
			return want[a].VM < want[b].VM
		})
		got := g.ScoreVMsFromWeights(w)
		for i := range want {
			if got[i].VM != want[i].VM || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("weights %v: rank %d is %v, sort.Slice gives %v", w, i, got[i], want[i])
			}
		}
	}
}
