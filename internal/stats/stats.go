// Package stats provides the statistical primitives used across Vesta:
// correlation coefficients (the heart of the paper's "correlation
// similarity" features), error metrics (MAPE), descriptive statistics,
// percentiles, normalization, and k-fold splitting for cross-validation.
package stats

import (
	"fmt"
	"math"
	"sort"

	"vesta/internal/rng"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Covariance returns the population covariance of equal-length xs and ys.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Covariance length mismatch")
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of xs and ys in
// [-1, 1]. Series with zero variance yield a correlation of 0 (no linear
// relationship can be established), matching how Vesta treats constant
// metrics such as an always-idle disk.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	r := Covariance(xs, ys) / (sx * sy)
	// Clamp tiny numeric excursions outside [-1, 1].
	return math.Max(-1, math.Min(1, r))
}

// Spearman returns the Spearman rank correlation coefficient: Pearson
// applied to the ranks of the two series, with average ranks for ties.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Spearman length mismatch")
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based fractional ranks of xs (ties receive the average
// of the ranks they span).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank across the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// MAPE returns the Mean Absolute Percentage Error (in percent, Equation 7 of
// the paper) between predicted and ground-truth values. Ground-truth entries
// equal to zero are skipped; if every entry is skipped MAPE returns 0.
func MAPE(predicted, truth []float64) float64 {
	if len(predicted) != len(truth) {
		panic("stats: MAPE length mismatch")
	}
	s, n := 0.0, 0
	for i := range predicted {
		if truth[i] == 0 {
			continue
		}
		s += math.Abs((predicted[i] - truth[i]) / truth[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * s / float64(n)
}

// AbsPercentErr returns |predicted-truth|/truth in percent for a single
// observation (0 when truth is 0).
func AbsPercentErr(predicted, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	return 100 * math.Abs((predicted-truth)/truth)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SortedPercentile(sorted, p)
}

// SortedPercentile is Percentile of an already ascending-sorted slice: the
// same interpolation, without the copy and sort.
func SortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: Percentile %v out of [0,100]", p))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// P90 returns the 90th percentile, the paper's conservative estimate over
// repeated cloud runs.
func P90(xs []float64) float64 { return Percentile(xs, 90) }

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// MinMax returns the minimum and maximum of xs. It panics on an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// ArgMin returns the index of the smallest element (first on ties), or -1
// for an empty slice.
func ArgMin(xs []float64) int {
	best := -1
	for i, x := range xs {
		if best == -1 || x < xs[best] {
			best = i
		}
	}
	return best
}

// ArgMax returns the index of the largest element (first on ties), or -1 for
// an empty slice.
func ArgMax(xs []float64) int {
	best := -1
	for i, x := range xs {
		if best == -1 || x > xs[best] {
			best = i
		}
	}
	return best
}

// Normalize returns xs rescaled to [0, 1] by min-max normalization. A
// constant series maps to all zeros.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, hi := MinMax(xs)
	if hi == lo {
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}

// ZScore returns xs standardized to zero mean and unit variance. A constant
// series maps to all zeros.
func ZScore(xs []float64) []float64 {
	out := make([]float64, len(xs))
	sd := StdDev(xs)
	if sd == 0 {
		return out
	}
	m := Mean(xs)
	for i, x := range xs {
		out[i] = (x - m) / sd
	}
	return out
}

// Fold is one train/test partition produced by KFold.
type Fold struct {
	Train []int
	Test  []int
}

// KFold splits n indices into k shuffled cross-validation folds. Every index
// appears in exactly one Test set. It panics when k < 2 or k > n.
func KFold(n, k int, src *rng.Source) []Fold {
	if k < 2 || k > n {
		panic(fmt.Sprintf("stats: KFold k=%d invalid for n=%d", k, n))
	}
	perm := src.Perm(n)
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		test := append([]int(nil), perm[lo:hi]...)
		train := make([]int, 0, n-len(test))
		train = append(train, perm[:lo]...)
		train = append(train, perm[hi:]...)
		folds[f] = Fold{Train: train, Test: test}
	}
	return folds
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	P10, P50, P90  float64
	CoefOfVariance float64 // Std/Mean, 0 when Mean == 0
}

// Summarize computes a Summary of xs. It panics on an empty slice.
func Summarize(xs []float64) Summary {
	lo, hi := MinMax(xs)
	m := Mean(xs)
	sd := StdDev(xs)
	cv := 0.0
	if m != 0 {
		cv = sd / m
	}
	return Summary{
		N: len(xs), Mean: m, Std: sd, Min: lo, Max: hi,
		P10: Percentile(xs, 10), P50: Median(xs), P90: P90(xs),
		CoefOfVariance: cv,
	}
}
