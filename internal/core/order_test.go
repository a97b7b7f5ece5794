package core

import (
	"math"
	"sort"
	"testing"

	"vesta/internal/bipartite"
	"vesta/internal/cloud"
	"vesta/internal/rng"
)

// tieHeavy returns n values drawn from {0, 0.25, 0.5}, so most values tie,
// with NaN mixed in when withNaN is set.
func tieHeavy(src *rng.Source, n int, withNaN bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(src.Intn(3)) * 0.25
		if withNaN && src.Intn(5) == 0 {
			out[i] = math.NaN()
		}
	}
	return out
}

// TestStrongestMatchesSortSlice: strongest picks exactly the labels the
// sort.Slice comparison it replaced picked, in the same order, on
// tie-heavy rows with and without NaN and for every cut from 0 to past the
// row length.
func TestStrongestMatchesSortSlice(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 2000; trial++ {
		w := tieHeavy(src, 1+src.Intn(16), trial%2 == 1)
		// Verbatim copy of the selection transfer made before strongest.
		type wi struct {
			w float64
			i int
		}
		order := make([]wi, len(w))
		for i, x := range w {
			order[i] = wi{x, i}
		}
		sort.Slice(order, func(a, b int) bool {
			if order[a].w != order[b].w {
				return order[a].w > order[b].w
			}
			return order[a].i < order[b].i
		})
		for n := 0; n <= len(w)+1; n++ {
			got := strongest(w, n)
			if len(got) != min(n, len(w)) {
				t.Fatalf("weights %v, n=%d: %d indices", w, n, len(got))
			}
			for k, idx := range got {
				if idx != order[k].i {
					t.Fatalf("weights %v, n=%d: pick %d is label %d, sort.Slice gives %d", w, n, k, idx, order[k].i)
				}
			}
		}
	}
}

// TestAdaptRankingOrderMatchesSortSlice: adaptRanking orders exactly as the
// sort.Slice comparison it replaced, on a catalog in scrambled name order
// whose graph scores take three values (and NaN), with a few types missing
// from the graph so their interpolated scores join the sort.
func TestAdaptRankingOrderMatchesSortSlice(t *testing.T) {
	src := rng.New(2)
	base := cloud.Catalog120()
	for trial := 0; trial < 200; trial++ {
		perm := src.Perm(len(base))
		cat := make([]cloud.VMType, len(base))
		for i, p := range perm {
			cat[i] = base[p]
		}
		s := &System{catalog: cat, byName: cloud.ByName(cat), trained: cloud.ByName(cat)}
		scores := tieHeavy(src, len(cat), trial%2 == 1)
		var ranking []bipartite.VMScore
		for i, v := range cat {
			if src.Intn(10) == 0 {
				continue // not in the graph: adaptRanking interpolates it
			}
			ranking = append(ranking, bipartite.VMScore{VM: v.Name, Score: scores[i]})
		}
		graphScore := make(map[string]float64, len(ranking))
		for _, r := range ranking {
			graphScore[r.VM] = r.Score
		}
		want := make([]bipartite.VMScore, 0, len(cat))
		for _, v := range cat {
			score, ok := graphScore[v.Name]
			if !ok {
				score = s.interpolateScore(v, ranking)
			}
			want = append(want, bipartite.VMScore{VM: v.Name, Score: score})
		}
		// Verbatim copy of the comparison adaptRanking sorted with before
		// bipartite.ByScore.
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].VM < want[j].VM
		})
		got := s.adaptRanking(ranking)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d ranked, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].VM != want[i].VM || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("trial %d: rank %d is %v, sort.Slice gives %v", trial, i, got[i], want[i])
			}
		}
	}
}
