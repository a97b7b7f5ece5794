// Package cmf implements Collective Matrix Factorization (Singh & Gordon,
// KDD'08) solved by alternating Stochastic Gradient Descent, the transfer
// mechanism of Vesta's online phase (Section 3.3, Algorithm 1 lines 5-12).
//
// Three relationship matrices share one label factor matrix L:
//
//	U  ~ X  L^T   source workload-label relationships  (dense, observed)
//	V  ~ T  L^T   label-VM relationships               (dense, observed)
//	U* ~ X* L^T   target workload-label relationships  (sparse: a new
//	              workload has only a sandbox run plus 3 random VM runs)
//
// Because L is shared, the dense source knowledge constrains the label
// geometry, and the few observed U* entries suffice to place the target
// workloads in that geometry — after which Completed = X* L^T fills the
// missing entries (Algorithm 1 line 12: "a full representation of U* by
// filling data from U"). The paper's tradeoff parameter lambda weights the
// target reconstruction against the source knowledge; the paper uses 0.75.
//
// Once L has converged over the source relations, placing one more target
// row is a small convex problem with a closed-form answer: FoldIn solves it
// directly instead of running SGD over every relation again. Vesta runs
// Solve once per trained knowledge (its predict plan: the source relations
// plus an unobserved target row) and places every target with FoldIn.
//
// Solve reports Converged=false when the epoch budget is exhausted before
// the loss stabilizes; FoldIn reports false when a row cannot be placed.
// The paper's Spark-CF case ("does not converge in the SGD algorithm") is
// handled by a convergence limitation in the online phase.
package cmf

import (
	"fmt"
	"math"
	"sync"

	"vesta/internal/mat"
	"vesta/internal/rng"
)

// Problem bundles the observed matrices. All must share the label dimension
// j (columns). Mask marks observed entries of UStar (1 = observed); a nil
// Mask means UStar is fully observed.
type Problem struct {
	U     *mat.Matrix // i x j source workload-label
	V     *mat.Matrix // k x j label-VM
	UStar *mat.Matrix // n x j target workload-label (sparse)
	Mask  *mat.Matrix // n x j observation mask for UStar
}

// Config tunes the factorization.
type Config struct {
	// LatentDim is g, the shared latent feature dimension. Default 6.
	LatentDim int
	// Lambda in [0,1] trades target reconstruction (lambda) against source
	// knowledge (1-lambda); Equation 6. Default 0.75 (the paper's choice).
	// Zero is a legal value (a pure-source ablation) but is indistinguishable
	// from the unset zero value, so it must be requested explicitly via
	// LambdaSet (or the WithLambda helper).
	Lambda float64
	// LambdaSet marks Lambda as explicitly configured, making Lambda == 0
	// mean "weight the target reconstruction by zero" instead of "use the
	// default 0.75".
	LambdaSet bool
	// Reg is the L2 regularization weight R(U, V, U*). Default 0.02. Zero
	// (no regularization) is legal with RegSet.
	Reg float64
	// RegSet marks Reg as explicitly configured (Reg == 0 disables
	// regularization instead of taking the default).
	RegSet bool
	// LearnRate is the SGD step size. Default 0.02.
	LearnRate float64
	// MaxEpochs bounds training; reaching it without stabilizing marks the
	// result non-converged. Default 400.
	MaxEpochs int
	// Tol is the relative improvement threshold: an epoch that fails to
	// improve the best loss by this fraction counts as stagnant. Default
	// 1e-4.
	Tol float64
	// LRDecay shrinks the learning rate as 1/(1 + LRDecay*epoch) so the
	// stochastic loss settles. Default 0.01. Zero (constant learning rate)
	// is legal with LRDecaySet.
	LRDecay float64
	// LRDecaySet marks LRDecay as explicitly configured (LRDecay == 0 keeps
	// the learning rate constant instead of taking the default).
	LRDecaySet bool
	// Patience is how many consecutive stagnant epochs declare convergence.
	// Default 10.
	Patience int
}

// WithLambda returns a copy of the config with Lambda explicitly set, so
// zero survives fillDefaults (a pure-source λ=0 ablation).
func (c Config) WithLambda(v float64) Config {
	c.Lambda, c.LambdaSet = v, true
	return c
}

// WithReg returns a copy of the config with Reg explicitly set (zero
// disables regularization).
func (c Config) WithReg(v float64) Config {
	c.Reg, c.RegSet = v, true
	return c
}

// WithLRDecay returns a copy of the config with LRDecay explicitly set (zero
// keeps the learning rate constant).
func (c Config) WithLRDecay(v float64) Config {
	c.LRDecay, c.LRDecaySet = v, true
	return c
}

func (c *Config) fillDefaults() {
	if c.LatentDim <= 0 {
		c.LatentDim = 6
	}
	// Lambda, Reg and LRDecay all admit 0 as a meaningful value, so the
	// zero value alone cannot act as the "unset" sentinel — the *Set flags
	// disambiguate. Negative values are rejected by validate, not silently
	// replaced here.
	if c.Lambda == 0 && !c.LambdaSet {
		c.Lambda = 0.75
	}
	if c.Reg == 0 && !c.RegSet {
		c.Reg = 0.02
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 0.02
	}
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = 400
	}
	if c.Tol <= 0 {
		c.Tol = 1e-4
	}
	if c.LRDecay == 0 && !c.LRDecaySet {
		c.LRDecay = 0.01
	}
	if c.Patience <= 0 {
		c.Patience = 10
	}
}

// validate rejects the filled config's out-of-range objective weights.
func (c *Config) validate() error {
	if c.Lambda < 0 || c.Lambda > 1 || math.IsNaN(c.Lambda) {
		return fmt.Errorf("cmf: lambda %v out of [0,1]", c.Lambda)
	}
	if c.Reg < 0 || math.IsNaN(c.Reg) {
		return fmt.Errorf("cmf: negative regularization %v", c.Reg)
	}
	return nil
}

// Result is a fitted factorization.
type Result struct {
	X, XStar, T, L *mat.Matrix
	// Completed is XStar * L^T: the filled-in target workload-label matrix.
	Completed *mat.Matrix
	Converged bool
	Epochs    int
	Loss      []float64 // loss per epoch
}

// Validate checks dimension consistency of the problem.
func (p Problem) Validate() error {
	if p.U == nil || p.V == nil || p.UStar == nil {
		return fmt.Errorf("cmf: U, V and UStar are all required")
	}
	j := p.U.Cols
	if p.V.Cols != j || p.UStar.Cols != j {
		return fmt.Errorf("cmf: label dimension mismatch: U has %d, V has %d, UStar has %d",
			j, p.V.Cols, p.UStar.Cols)
	}
	if p.Mask != nil && (p.Mask.Rows != p.UStar.Rows || p.Mask.Cols != p.UStar.Cols) {
		return fmt.Errorf("cmf: mask shape %dx%d does not match UStar %dx%d",
			p.Mask.Rows, p.Mask.Cols, p.UStar.Rows, p.UStar.Cols)
	}
	if p.U.Rows == 0 || p.V.Rows == 0 || p.UStar.Rows == 0 || j == 0 {
		return fmt.Errorf("cmf: empty matrix in problem")
	}
	return nil
}

// cellRC is one observed cell with its row and column pre-resolved, so the
// sweep inner loop never divides a flat index back into coordinates.
type cellRC struct {
	idx, r, c int32
}

// scratchPool recycles the shuffle buffers of concurrent solves. Entries are
// pointers to slices (the usual sync.Pool idiom avoiding per-Put allocation).
var scratchPool = sync.Pool{New: func() any { s := make([]cellRC, 0, 1280); return &s }}

// Solve runs the alternating SGD of Algorithm 1: each epoch fixes all factor
// matrices but one and sweeps SGD updates over the relevant observed cells,
// cycling X* -> X -> T -> L until the total loss stabilizes.
func Solve(p Problem, cfg Config, src *rng.Source) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.LRDecay < 0 || math.IsNaN(cfg.LRDecay) {
		return nil, fmt.Errorf("cmf: negative learning-rate decay %v", cfg.LRDecay)
	}

	// The draw order X, X*, T, L is part of the determinism contract (it
	// pins the rng stream of every historical solve).
	g := cfg.LatentDim
	res := &Result{
		X:     randomFactor(p.U.Rows, g, src),
		XStar: randomFactor(p.UStar.Rows, g, src),
		T:     randomFactor(p.V.Rows, g, src),
		L:     randomFactor(p.U.Cols, g, src),
	}

	// The observed-cell lists are fixed for the whole solve (the mask never
	// changes), so they are built once. Each sweep copies the ascending base
	// list into a pooled scratch buffer and shuffles the copy, so the rng
	// draws land on identical starting permutations every pass and the
	// factorization stays bit-identical to the historical per-sweep rebuild.
	cellsUStar, cellsU, cellsV := observedCells(p.UStar, p.Mask), observedCells(p.U, nil), observedCells(p.V, nil)
	scratchp := scratchPool.Get().(*[]cellRC)
	maxCells := maxLen(len(cellsUStar), len(cellsU), len(cellsV))
	if cap(*scratchp) < maxCells {
		*scratchp = make([]cellRC, 0, maxCells)
	}
	scratch := (*scratchp)[:maxCells]
	defer scratchPool.Put(scratchp)

	best := math.Inf(1)
	stagnant := 0
	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		// Decayed step size keeps late epochs from oscillating.
		lrE := cfg.LearnRate / (1 + cfg.LRDecay*float64(epoch))
		// Line 8: fix U (X) and V (T), update U*'s factors.
		sweep(p.UStar, cellsUStar, scratch, res.XStar, res.L, cfg.Lambda, lrE, cfg.Reg, src, true, false)
		// Line 9: fix U* and V, update U's factors.
		sweep(p.U, cellsU, scratch, res.X, res.L, 1-cfg.Lambda, lrE, cfg.Reg, src, true, false)
		// Line 10: fix U and U*, update V's factors.
		sweep(p.V, cellsV, scratch, res.T, res.L, 1-cfg.Lambda, lrE, cfg.Reg, src, true, false)
		// Shared label factors see every relation.
		sweep(p.UStar, cellsUStar, scratch, res.XStar, res.L, cfg.Lambda, lrE, cfg.Reg, src, false, true)
		sweep(p.U, cellsU, scratch, res.X, res.L, 1-cfg.Lambda, lrE, cfg.Reg, src, false, true)
		sweep(p.V, cellsV, scratch, res.T, res.L, 1-cfg.Lambda, lrE, cfg.Reg, src, false, true)

		loss := totalLoss(p, res, cfg)
		res.Loss = append(res.Loss, loss)
		res.Epochs = epoch + 1
		if loss < best*(1-cfg.Tol) {
			best = loss
			stagnant = 0
		} else {
			if loss < best {
				best = loss
			}
			stagnant++
			if stagnant >= cfg.Patience {
				res.Converged = true
				break
			}
		}
	}

	res.Completed = res.XStar.Mul(res.L.T())
	return res, nil
}

// FoldIn places a new workload in the label geometry of already-converged
// shared label factors l (one row of L per label): each target row r of
// ustar is set to the exact minimizer of its term of Equation 6 with L held
// fixed,
//
//	min_x  lambda * sum_{c observed} (u*_rc - x.L_c)^2 + Reg*|x|^2,
//
// i.e. the solution of the g x g ridge system
// (lambda*Lo^T Lo + Reg*I) x = lambda*Lo^T u*_o over the observed columns o.
// It returns Completed = X* L^T, the filled-in target rows. With L frozen the
// source terms of Equation 6 are constants, so this is the whole target
// optimization in closed form: no SGD and no rng. mask marks observed cells
// (nil: all observed). ok is false when the config is invalid, the shapes
// disagree (l must be ustar.Cols x LatentDim), a row has no observed cell,
// or a row's system is singular or yields a non-finite solution.
func FoldIn(ustar, mask, l *mat.Matrix, cfg Config) (completed *mat.Matrix, ok bool) {
	xstar, ok := foldRows(ustar, mask, l, cfg)
	if !ok {
		return nil, false
	}
	return xstar.Mul(l.T()), true
}

// foldRows returns the X* rows FoldIn places (see FoldIn).
func foldRows(ustar, mask, l *mat.Matrix, cfg Config) (*mat.Matrix, bool) {
	cfg.fillDefaults()
	g := cfg.LatentDim
	if cfg.validate() != nil || ustar == nil || l == nil || ustar.Rows == 0 ||
		l.Rows != ustar.Cols || l.Cols != g ||
		(mask != nil && (mask.Rows != ustar.Rows || mask.Cols != ustar.Cols)) {
		return nil, false
	}
	j := ustar.Cols
	xstar := mat.New(ustar.Rows, g)
	for r := 0; r < ustar.Rows; r++ {
		a := mat.New(g, g)
		b := make([]float64, g)
		seen := false
		for c := 0; c < j; c++ {
			idx := r*j + c
			if mask != nil && mask.Data[idx] == 0 {
				continue
			}
			seen = true
			lrow := l.RowView(c)
			u := ustar.Data[idx]
			for i := 0; i < g; i++ {
				b[i] += cfg.Lambda * u * lrow[i]
				for k := 0; k < g; k++ {
					a.Data[i*g+k] += cfg.Lambda * lrow[i] * lrow[k]
				}
			}
		}
		if !seen {
			return nil, false
		}
		for i := 0; i < g; i++ {
			a.Data[i*g+i] += cfg.Reg
		}
		x, err := mat.Solve(a, b)
		if err != nil {
			return nil, false
		}
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, false
			}
		}
		xstar.SetRow(r, x)
	}
	return xstar, true
}

// observedCells lists target's observed cells (all of them for a nil mask)
// in ascending flat-index order, with row/column coordinates pre-resolved.
func observedCells(target, mask *mat.Matrix) []cellRC {
	n := target.Rows * target.Cols
	j := target.Cols
	cells := make([]cellRC, 0, n)
	for idx := 0; idx < n; idx++ {
		if mask == nil || mask.Data[idx] != 0 {
			cells = append(cells, cellRC{idx: int32(idx), r: int32(idx / j), c: int32(idx % j)})
		}
	}
	return cells
}

func maxLen(ns ...int) int {
	m := 0
	for _, n := range ns {
		if n > m {
			m = n
		}
	}
	return m
}

// randomFactor initializes a rows x g factor with small random values.
func randomFactor(rows, g int, src *rng.Source) *mat.Matrix {
	m := mat.New(rows, g)
	for i := range m.Data {
		m.Data[i] = src.Norm(0, 0.1)
	}
	return m
}

// sweep performs one SGD pass over the observed cells of target ~ row * L^T,
// updating the row factors or L according to the flags. base lists the
// observed cells in ascending order; each pass copies it into scratch and
// shuffles that copy, so every pass starts from the same permutation
// (bit-identical rng consumption) without re-deriving the list from the
// mask. The inner loops run on row slices through the fused mat helpers —
// bit-identical to the historical scalar loops (TestSweepBitIdentical pins
// this against a reference implementation).
func sweep(target *mat.Matrix, base, scratch []cellRC, rows, l *mat.Matrix, weight, learnRate, reg float64, src *rng.Source, updateRows, updateL bool) {
	if weight == 0 {
		return
	}
	cells := scratch[:len(base)]
	copy(cells, base)
	src.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })

	g := rows.Cols
	lr := learnRate * weight
	tdata := target.Data
	rdata, ldata := rows.Data, l.Data
	for _, cell := range cells {
		rowf := rdata[int(cell.r)*g : int(cell.r)*g+g]
		lrow := ldata[int(cell.c)*g : int(cell.c)*g+g]
		e := tdata[cell.idx] - mat.DotFused(rowf, lrow)
		if updateRows {
			mat.SGDStepFused(lr, e, reg, rowf, lrow)
		}
		if updateL {
			mat.SGDStepFused(lr, e, reg, lrow, rowf)
		}
	}
}

// totalLoss evaluates Equation 6 plus regularization.
func totalLoss(p Problem, res *Result, cfg Config) float64 {
	loss := cfg.Lambda * maskedSSE(p.UStar, p.Mask, res.XStar, res.L)
	loss += (1 - cfg.Lambda) * (maskedSSE(p.U, nil, res.X, res.L) + maskedSSE(p.V, nil, res.T, res.L))
	reg := sq(res.X) + sq(res.XStar) + sq(res.T) + sq(res.L)
	return loss + cfg.Reg*reg
}

func sq(m *mat.Matrix) float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return s
}

// maskedSSE returns the squared reconstruction error of target ~ rows * L^T
// over observed cells. The row slices are hoisted out of the column loop and
// the inner product runs through the fused helper — the summation order is
// exactly the historical scalar loop's, so the value is bit-identical
// (TestMaskedSSEBitIdentical).
func maskedSSE(target, mask, rows, l *mat.Matrix) float64 {
	n, j, g := target.Rows, target.Cols, rows.Cols
	s := 0.0
	for r := 0; r < n; r++ {
		trow := target.Data[r*j : (r+1)*j]
		rowf := rows.Data[r*g : r*g+g]
		var mrow []float64
		if mask != nil {
			mrow = mask.Data[r*j : (r+1)*j]
		}
		for c := 0; c < j; c++ {
			if mrow != nil && mrow[c] == 0 {
				continue
			}
			d := trow[c] - mat.DotFused(rowf, l.Data[c*g:c*g+g])
			s += d * d
		}
	}
	return s
}

// RMSEObserved reports the root-mean-square reconstruction error of the
// completed U* against a reference matrix over the given mask (1 = compare).
// A nil mask compares every cell. Useful for held-out evaluation.
func (r *Result) RMSEObserved(ref, mask *mat.Matrix) float64 {
	if ref.Rows != r.Completed.Rows || ref.Cols != r.Completed.Cols {
		panic("cmf: RMSE shape mismatch")
	}
	s, n := 0.0, 0
	for idx, v := range ref.Data {
		if mask != nil && mask.Data[idx] == 0 {
			continue
		}
		d := v - r.Completed.Data[idx]
		s += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(s / float64(n))
}
