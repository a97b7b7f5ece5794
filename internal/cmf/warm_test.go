package cmf

import (
	"math"
	"testing"

	"vesta/internal/mat"
	"vesta/internal/rng"
)

// refSweep is the scalar SGD pass the solver used before the fused helpers
// and cellRC lists existed — the bit-identity reference for sweep.
func refSweep(target *mat.Matrix, base, scratch []int, rows, l *mat.Matrix, weight float64, learnRate, reg float64, src *rng.Source, updateRows, updateL bool) {
	if weight == 0 {
		return
	}
	j := target.Cols
	cells := scratch[:len(base)]
	copy(cells, base)
	src.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })

	g := rows.Cols
	lr := learnRate * weight
	for _, idx := range cells {
		r, c := idx/j, idx%j
		pred := 0.0
		for f := 0; f < g; f++ {
			pred += rows.Data[r*g+f] * l.Data[c*g+f]
		}
		e := target.Data[idx] - pred
		for f := 0; f < g; f++ {
			rv := rows.Data[r*g+f]
			lv := l.Data[c*g+f]
			if updateRows {
				rows.Data[r*g+f] += lr * (e*lv - reg*rv)
			}
			if updateL {
				l.Data[c*g+f] += lr * (e*rv - reg*lv)
			}
		}
	}
}

// refMaskedSSE is the pre-restructuring scalar loss loop.
func refMaskedSSE(target, mask, rows, l *mat.Matrix) float64 {
	n, j, g := target.Rows, target.Cols, rows.Cols
	s := 0.0
	for r := 0; r < n; r++ {
		for c := 0; c < j; c++ {
			idx := r*j + c
			if mask != nil && mask.Data[idx] == 0 {
				continue
			}
			pred := 0.0
			for f := 0; f < g; f++ {
				pred += rows.Data[r*g+f] * l.Data[c*g+f]
			}
			d := target.Data[idx] - pred
			s += d * d
		}
	}
	return s
}

func intCells(cells []cellRC) []int {
	out := make([]int, len(cells))
	for i, c := range cells {
		out[i] = int(c.idx)
	}
	return out
}

func equalBits(t *testing.T, name string, got, want *mat.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: entry %d differs: %x vs %x", name, i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// TestSweepBitIdentical pins the restructured sweep (cellRC lists, hoisted
// update flags, fused row-slice helpers) to the historical scalar loop,
// bit for bit, across both update modes and masked/unmasked cell lists.
func TestSweepBitIdentical(t *testing.T) {
	src := rng.New(21)
	p, _ := synthProblem(src, 9, 5, 7, 6, 3, 0.55)
	g := 3
	for _, mode := range []struct {
		name                string
		updateRows, updateL bool
	}{
		{"rows", true, false},
		{"l", false, true},
	} {
		for _, masked := range []bool{true, false} {
			target, mask := p.UStar, p.Mask
			if !masked {
				target, mask = p.U, nil
			}
			cells := observedCells(target, mask)
			rows := randomFactor(target.Rows, g, rng.New(31))
			l := randomFactor(target.Cols, g, rng.New(32))
			rowsRef, lRef := rows.Clone(), l.Clone()

			scratch := make([]cellRC, len(cells))
			sweep(target, cells, scratch, rows, l, 0.75, 0.02, 0.02, rng.New(33), mode.updateRows, mode.updateL)
			refScratch := make([]int, len(cells))
			refSweep(target, intCells(cells), refScratch, rowsRef, lRef, 0.75, 0.02, 0.02, rng.New(33), mode.updateRows, mode.updateL)

			equalBits(t, mode.name+"/rows", rows, rowsRef)
			equalBits(t, mode.name+"/l", l, lRef)
		}
	}
}

// TestSweepZeroWeightConsumesNoRNG pins the weight==0 early return happening
// before the shuffle — a zero-weight sweep must leave the rng stream intact.
func TestSweepZeroWeightConsumesNoRNG(t *testing.T) {
	src := rng.New(40)
	p, _ := synthProblem(src, 4, 2, 3, 3, 2, 1)
	cells := observedCells(p.U, nil)
	rows := randomFactor(p.U.Rows, 2, rng.New(41))
	l := randomFactor(p.U.Cols, 2, rng.New(42))
	a, b := rng.New(43), rng.New(43)
	sweep(p.U, cells, make([]cellRC, len(cells)), rows, l, 0, 0.02, 0.02, a, true, false)
	if a.Uint64() != b.Uint64() {
		t.Fatal("zero-weight sweep consumed rng draws")
	}
}

// TestMaskedSSEBitIdentical pins the hoisted-slice loss loop to the
// historical scalar loop.
func TestMaskedSSEBitIdentical(t *testing.T) {
	src := rng.New(22)
	p, _ := synthProblem(src, 8, 5, 6, 7, 3, 0.5)
	rows := randomFactor(5, 3, rng.New(23))
	l := randomFactor(7, 3, rng.New(24))
	for _, mask := range []*mat.Matrix{p.Mask, nil} {
		got, want := maskedSSE(p.UStar, mask, rows, l), refMaskedSSE(p.UStar, mask, rows, l)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("mask=%v: maskedSSE %x, reference %x", mask != nil,
				math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// warmFixture mirrors the serving architecture at membership scale: a
// source-only "plan" problem (empty target row) is solved cold once, and the
// request problem adds one new row with a few observed cells drawn in the
// same label geometry — the transfer assumption the fold-in exploits: the
// converged label factors are already right, only the target's coordinates
// are unknown. Factor entries sit in U(0, 0.35) so matrix cells are
// ~0.1-0.3, like the real label-membership matrices.
func warmFixture(t *testing.T) (*Result, Problem, Config) {
	t.Helper()
	src := rng.New(50)
	factor := func(rows, g int) *mat.Matrix {
		m := mat.New(rows, g)
		for i := range m.Data {
			m.Data[i] = src.Range(0, 0.35)
		}
		return m
	}
	x, tt, l := factor(13, 3), factor(10, 3), factor(8, 3)
	p := Problem{U: x.Mul(l.T()), V: tt.Mul(l.T()), UStar: mat.New(1, 8), Mask: mat.New(1, 8)}
	cfg := Config{LatentDim: 3, MaxEpochs: 2000, Tol: 1e-4}
	cold, err := Solve(p, cfg, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Converged {
		t.Fatal("fixture plan solve did not converge")
	}
	xs := factor(1, 3)
	full := xs.Mul(l.T())
	mask := mat.New(1, 8)
	ustar := mat.New(1, 8)
	for _, c := range []int{1, 4, 6} {
		mask.Set(0, c, 1)
		ustar.Set(0, c, full.At(0, c))
	}
	next := Problem{U: p.U, V: p.V, UStar: ustar, Mask: mask}
	return cold, next, cfg
}

// TestWarmDoesNotMutateSeedFactors: FoldIn only reads the converged label
// factors it is seeded with (the serving plan shares them across every
// concurrent request) and the target it places.
func TestWarmDoesNotMutateSeedFactors(t *testing.T) {
	cold, next, cfg := warmFixture(t)
	seedL, ustar, mask := cold.L.Clone(), next.UStar.Clone(), next.Mask.Clone()
	if _, ok := FoldIn(next.UStar, next.Mask, cold.L, cfg); !ok {
		t.Fatal("fold-in failed on a well-posed target")
	}
	equalBits(t, "L", cold.L, seedL)
	equalBits(t, "UStar", next.UStar, ustar)
	equalBits(t, "Mask", next.Mask, mask)
}

// TestFreezeSourceFitsOnlyTarget: FoldIn is the frozen-source fit — the
// label factors stay at the plan's converged values and only the target row
// is placed — and its fit of the observed target cells must stay close to a
// full cold solve that re-fits every factor.
func TestFreezeSourceFitsOnlyTarget(t *testing.T) {
	cold, next, cfg := warmFixture(t)
	completed, ok := FoldIn(next.UStar, next.Mask, cold.L, cfg)
	if !ok {
		t.Fatal("fold-in failed on a well-posed target")
	}
	full, err := Solve(next, cfg, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	folded := (&Result{Completed: completed}).RMSEObserved(next.UStar, next.Mask)
	fullRMSE := full.RMSEObserved(next.UStar, next.Mask)
	if folded > 3*fullRMSE+1e-9 {
		t.Fatalf("fold-in observed RMSE %v too far from full solve %v", folded, fullRMSE)
	}
}

// TestFreezeSourceRequiresWarm: a frozen-source fit needs the converged
// label factors; FoldIn without them reports not-ok instead of panicking.
func TestFreezeSourceRequiresWarm(t *testing.T) {
	p, _ := synthProblem(rng.New(60), 4, 2, 3, 3, 2, 1)
	if _, ok := FoldIn(p.UStar, p.Mask, nil, Config{LatentDim: 2}); ok {
		t.Fatal("FoldIn without label factors reported ok")
	}
}

// TestWarmShapeValidation: label factors that do not match the target's
// label dimension or the configured latent dimension are rejected, as is a
// mask of the wrong shape.
func TestWarmShapeValidation(t *testing.T) {
	p, _ := synthProblem(rng.New(61), 5, 3, 4, 4, 2, 0.8)
	cfg := Config{LatentDim: 2}
	if _, ok := FoldIn(p.UStar, p.Mask, randomFactor(4, 2, rng.New(62)), cfg); !ok {
		t.Fatal("well-shaped label factors rejected")
	}
	cases := []struct {
		name        string
		ustar, mask *mat.Matrix
		l           *mat.Matrix
	}{
		{"wrong L rows", p.UStar, p.Mask, mat.New(5, 2)},
		{"wrong latent dim", p.UStar, p.Mask, mat.New(4, 3)},
		{"wrong mask shape", p.UStar, mat.New(3, 5), mat.New(4, 2)},
		{"nil target", nil, nil, mat.New(4, 2)},
		{"empty target", mat.New(0, 4), nil, mat.New(4, 2)},
	}
	for _, tc := range cases {
		if _, ok := FoldIn(tc.ustar, tc.mask, tc.l, cfg); ok {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// BenchmarkFoldIn measures one serving-shaped fold-in: a 1 x 9 target row
// with 3 observed labels against 6-dimensional label factors.
func BenchmarkFoldIn(b *testing.B) {
	src := rng.New(70)
	l := randomFactor(9, 6, src)
	ustar, mask := mat.New(1, 9), mat.New(1, 9)
	for _, c := range []int{0, 3, 7} {
		ustar.Set(0, c, src.Range(0, 1))
		mask.Set(0, c, 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := FoldIn(ustar, mask, l, Config{}); !ok {
			b.Fatal("fold-in failed")
		}
	}
}
