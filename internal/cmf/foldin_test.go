package cmf

import (
	"math"
	"testing"

	"vesta/internal/mat"
	"vesta/internal/rng"
)

// refInitTargetRows is the closed-form target placement a warm-started
// Solve used to seed its X* rows with, before FoldIn made it the whole
// answer — the bit-identity reference for FoldIn. Rows with no observed
// cell or a singular system fell back to a random draw from src.
func refInitTargetRows(p Problem, cells []cellRC, l *mat.Matrix, cfg Config, src *rng.Source) *mat.Matrix {
	g := cfg.LatentDim
	xstar := mat.New(p.UStar.Rows, g)
	for r := 0; r < p.UStar.Rows; r++ {
		a := mat.New(g, g)
		b := make([]float64, g)
		seen := false
		for _, cell := range cells {
			if int(cell.r) != r {
				continue
			}
			seen = true
			lrow := l.RowView(int(cell.c))
			u := p.UStar.Data[cell.idx]
			for i := 0; i < g; i++ {
				b[i] += cfg.Lambda * u * lrow[i]
				for k := 0; k < g; k++ {
					a.Data[i*g+k] += cfg.Lambda * lrow[i] * lrow[k]
				}
			}
		}
		for i := 0; i < g; i++ {
			a.Data[i*g+i] += cfg.Reg
		}
		if seen {
			if x, err := mat.Solve(a, b); err == nil {
				xstar.SetRow(r, x)
				continue
			}
		}
		for f := 0; f < g; f++ {
			xstar.Data[r*g+f] = src.Norm(0, 0.1)
		}
	}
	return xstar
}

// foldCase is one random fold-in problem: a sparse target against random
// label factors, under a random (valid) objective weighting.
type foldCase struct {
	p   Problem
	l   *mat.Matrix
	cfg Config
}

func randomFoldCases(n int) []foldCase {
	src := rng.New(90)
	cases := make([]foldCase, n)
	for i := range cases {
		g := 2 + src.Intn(6)     // latent dim 2..7
		j := g + 1 + src.Intn(8) // labels
		rows := 1 + src.Intn(4)
		p, _ := synthProblem(src, 3, rows, 3, j, g, 0.2+0.6*src.Float64())
		cfg := Config{LatentDim: g}.WithLambda(0.1 + 0.9*src.Float64()).WithReg(0.001 + 0.1*src.Float64())
		cases[i] = foldCase{p: p, l: randomFactor(j, g, src), cfg: cfg}
	}
	return cases
}

// TestFoldInGradientVanishes: the returned placement is the minimizer of
// the target term of Equation 6 with L fixed — the objective's gradient
// 2*(lambda*Lo^T Lo + Reg*I) x - 2*lambda*Lo^T u*_o is zero up to rounding,
// relative to the magnitude of the two terms.
func TestFoldInGradientVanishes(t *testing.T) {
	for ci, tc := range randomFoldCases(50) {
		xstar, ok := foldRows(tc.p.UStar, tc.p.Mask, tc.l, tc.cfg)
		if !ok {
			t.Fatalf("case %d: fold-in failed on a regularized problem", ci)
		}
		cfg := tc.cfg
		cfg.fillDefaults()
		g, j := cfg.LatentDim, tc.p.UStar.Cols
		for r := 0; r < xstar.Rows; r++ {
			x := xstar.RowView(r)
			grad := make([]float64, g)
			fit := make([]float64, g) // (lambda*Lo^T Lo + Reg*I) x
			rhs := make([]float64, g) // lambda*Lo^T u*_o
			for c := 0; c < j; c++ {
				if tc.p.Mask.At(r, c) == 0 {
					continue
				}
				lc := tc.l.RowView(c)
				pred := mat.Dot(x, lc)
				for i := range fit {
					fit[i] += cfg.Lambda * pred * lc[i]
					rhs[i] += cfg.Lambda * tc.p.UStar.At(r, c) * lc[i]
				}
			}
			for i := range grad {
				fit[i] += cfg.Reg * x[i]
				grad[i] = 2 * (fit[i] - rhs[i])
			}
			scale := 2 * (norm(fit) + norm(rhs))
			if rel := norm(grad) / scale; rel > 1e-9 {
				t.Fatalf("case %d row %d: relative gradient %.3g at the fold-in placement", ci, r, rel)
			}
		}
	}
}

func norm(v []float64) float64 {
	return math.Sqrt(mat.Dot(v, v))
}

// TestFoldInMatchesInitTargetRows: FoldIn is the warm solve's closed-form
// target initialization promoted to the whole answer, bit for bit — both
// the placed rows and the completed matrix X* L^T.
func TestFoldInMatchesInitTargetRows(t *testing.T) {
	for ci, tc := range randomFoldCases(50) {
		cfg := tc.cfg
		cfg.fillDefaults()
		want := refInitTargetRows(tc.p, observedCells(tc.p.UStar, tc.p.Mask), tc.l, cfg, rng.New(1))
		got, ok := foldRows(tc.p.UStar, tc.p.Mask, tc.l, tc.cfg)
		if !ok {
			t.Fatalf("case %d: fold-in failed", ci)
		}
		equalBits(t, "xstar", got, want)
		completed, ok := FoldIn(tc.p.UStar, tc.p.Mask, tc.l, tc.cfg)
		if !ok {
			t.Fatalf("case %d: fold-in failed", ci)
		}
		equalBits(t, "completed", completed, want.Mul(tc.l.T()))
	}
}

// TestFoldInNotOk: the cases the caller must fall back on — no observed
// cell in some target row, a singular system (no regularization and fewer
// observed labels than latent dimensions), and an invalid objective weight.
func TestFoldInNotOk(t *testing.T) {
	src := rng.New(91)
	l := randomFactor(9, 6, src)
	ustar, mask := mat.New(1, 9), mat.New(1, 9)
	for _, c := range []int{0, 3, 7} {
		ustar.Set(0, c, src.Range(0, 1))
		mask.Set(0, c, 1)
	}
	cfg := Config{LatentDim: 6}
	if _, ok := FoldIn(ustar, mask, l, cfg); !ok {
		t.Fatal("regularized 3-label fold-in failed")
	}
	if _, ok := FoldIn(ustar, mat.New(1, 9), l, cfg); ok {
		t.Fatal("fold-in with no observed cell reported ok")
	}
	two, twoMask := mat.New(2, 9), mat.New(2, 9)
	copy(two.Data, ustar.Data)
	copy(twoMask.Data, mask.Data)
	if _, ok := FoldIn(two, twoMask, l, cfg); ok {
		t.Fatal("fold-in with an unobserved second row reported ok")
	}
	if _, ok := FoldIn(ustar, mask, l, cfg.WithReg(0)); ok {
		t.Fatal("singular fold-in (3 observed labels, 6 latent dims, no regularization) reported ok")
	}
	if _, ok := FoldIn(ustar, mask, l, cfg.WithLambda(1.5)); ok {
		t.Fatal("fold-in with lambda out of [0,1] reported ok")
	}
	if _, ok := FoldIn(ustar, mask, l, cfg.WithReg(-1)); ok {
		t.Fatal("fold-in with negative regularization reported ok")
	}
}
