// Package rng provides deterministic pseudo-random number generation for the
// Vesta simulator and experiment harness.
//
// Every stochastic component in this repository (run-to-run cloud noise,
// K-Means initialization, SGD sampling, bootstrap resampling, ...) draws from
// an rng.Source seeded explicitly by the caller, so every experiment and
// every figure regenerates byte-identically. The generator is xoshiro-style
// (splitmix64 seeding + xorshift64* state advance), which is far cheaper than
// crypto randomness and has more than adequate statistical quality for
// simulation noise.
package rng

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Source is a deterministic pseudo-random number generator. It is NOT safe
// for concurrent use; give each goroutine its own Source (see Split).
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two Sources constructed with the
// same seed produce identical streams.
func New(seed uint64) *Source {
	s := &Source{state: splitmix64(seed + 0x9e3779b97f4a7c15)}
	if s.state == 0 {
		s.state = 0x853c49e6748fea9b
	}
	return s
}

// splitmix64 scrambles a seed into a well-distributed initial state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state = next(s.state)
	return s.state * 0x2545f4914f6cdd1d
}

// next is the xorshift state update behind every draw.
func next(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

// Skip advances the stream exactly as n Uint64 calls would, without
// producing their values: every later draw is bit-identical. Short skips
// step; longer ones jump in O(1) (see jumpOf), at most maxJump draws per
// jump.
func (s *Source) Skip(n int) {
	for n >= minJump {
		k := min(n, maxJump)
		s.state = jumpOf(k).apply(s.state)
		n -= k
	}
	for ; n > 0; n-- {
		s.state = next(s.state)
	}
}

// minJump and maxJump bound the skips a jump table serves: a few steps cost
// no more than a table lookup (4 steps and one jump both take about 11 ns
// on a 2-vCPU Xeon), and maxJump is the longest skip the trace sampler
// takes (one whole sample of 17 series, 4 draws each).
const (
	minJump = 8
	maxJump = 68
)

// jumpTable is the state update of n draws: the xorshift update is linear
// over GF(2), so n steps form one 64x64 bit matrix, stored as the images of
// the 256 values of each state byte. A state's image is the XOR of its 8
// bytes' images.
type jumpTable [8][256]uint64

func (t *jumpTable) apply(x uint64) uint64 {
	return t[0][byte(x)] ^ t[1][byte(x>>8)] ^ t[2][byte(x>>16)] ^ t[3][byte(x>>24)] ^
		t[4][byte(x>>32)] ^ t[5][byte(x>>40)] ^ t[6][byte(x>>48)] ^ t[7][byte(x>>56)]
}

// jumps holds the table of each skip length, built on first use: 16 KB a
// length, so only the lengths a process skips are ever built. A table is a
// pure function of its length, so every user may share it.
var jumps [maxJump + 1]atomic.Pointer[jumpTable]

// jumpOf returns the table of n draws, building it if no caller has. No
// lock is held while building; two first callers racing may both build the
// same table and keep whichever was stored first.
func jumpOf(n int) *jumpTable {
	if t := jumps[n].Load(); t != nil {
		return t
	}
	jumps[n].CompareAndSwap(nil, newJumpTable(n))
	return jumps[n].Load()
}

func newJumpTable(n int) *jumpTable {
	var col [64]uint64 // col[j]: the image of state bit j after n steps
	for j := range col {
		x := uint64(1) << j
		for i := 0; i < n; i++ {
			x = next(x)
		}
		col[j] = x
	}
	t := new(jumpTable)
	for b := range t {
		for v := 1; v < 256; v++ {
			low := v & -v
			t[b][v] = t[b][v^low] ^ col[8*b+bits.TrailingZeros(uint(low))]
		}
	}
	return t
}

// Split derives the i'th child Source from the parent's current state
// WITHOUT advancing the parent. Children with distinct indices are mutually
// decorrelated and decorrelated from the parent's own stream, and because
// Split is a pure function of (state, i), a loop that hands child i to task
// i produces bit-identical results whether the tasks run serially or on any
// number of workers — the stream-splitting contract the parallel execution
// layer relies on.
func (s *Source) Split(i uint64) *Source {
	// Double scrambling (splitmix64 here, then again inside New) pushes
	// sibling seeds far apart even for consecutive indices.
	return New(splitmix64(s.state^0xd1b54a32d192ed03) + (i+1)*0xbf58476d1ce4e5b9)
}

// Jump derives an independent child Source by consuming one draw from the
// parent, advancing it. Use Jump for sequential hand-offs where the parent
// keeps generating afterwards; use Split(i) when fanning out to indexed
// parallel tasks.
func (s *Source) Jump() *Source {
	return New(s.Uint64() ^ 0xd1b54a32d192ed03)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a normally distributed float64 with mean mu and standard
// deviation sigma, using the Box-Muller transform (cosine branch). It
// consumes exactly two Uint64 draws, whatever mu and sigma are, so a caller
// that discards k normal draws can Skip(2*k) instead.
func (s *Source) Norm(mu, sigma float64) float64 {
	// Guard against log(0).
	u1 := 1 - s.Float64()
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// LogNorm returns a log-normally distributed float64 whose underlying normal
// has mean mu and standard deviation sigma.
func (s *Source) LogNorm(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomly permutes the first n elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n). It panics if
// k > n or k < 0.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	p := s.Perm(n)
	return p[:k]
}

// Pick returns a random element index weighted by the non-negative weights.
// If all weights are zero it falls back to uniform choice. It panics on an
// empty slice.
func (s *Source) Pick(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Pick with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return s.Intn(len(weights))
	}
	r := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if r < acc {
			return i
		}
	}
	return len(weights) - 1
}
