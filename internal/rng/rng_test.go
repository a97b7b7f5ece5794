package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestZeroSeedNonZeroState(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(3)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want about 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(11)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(99)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("Norm mean = %v, want about 5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("Norm stddev = %v, want about 2", math.Sqrt(variance))
	}
}

func TestLogNormPositive(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		if v := s.LogNorm(0, 0.5); v <= 0 {
			t.Fatalf("LogNorm produced non-positive %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		n := 1 + int(seed%50)
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	s := New(13)
	idx := s.Sample(20, 5)
	if len(idx) != 5 {
		t.Fatalf("Sample returned %d values, want 5", len(idx))
	}
	seen := map[int]bool{}
	for _, v := range idx {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Sample produced invalid/duplicate index %d", v)
		}
		seen[v] = true
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3, 4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestPickWeighted(t *testing.T) {
	s := New(17)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[s.Pick([]float64{1, 2, 7})]++
	}
	// Expected proportions 0.1, 0.2, 0.7.
	if float64(counts[2])/30000 < 0.6 {
		t.Fatalf("heavy weight picked only %d/30000 times", counts[2])
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatal("light weights never picked")
	}
}

func TestPickZeroWeightsUniform(t *testing.T) {
	s := New(23)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[s.Pick([]float64{0, 0, 0})] = true
	}
	if len(seen) != 3 {
		t.Fatalf("zero-weight Pick not uniform: saw %d buckets", len(seen))
	}
}

func TestPickNegativeWeightIgnored(t *testing.T) {
	s := New(29)
	for i := 0; i < 1000; i++ {
		if s.Pick([]float64{-5, 1, -2}) != 1 {
			t.Fatal("Pick chose a negative-weight bucket")
		}
	}
}

func TestJumpIndependence(t *testing.T) {
	parent := New(31)
	child := parent.Jump()
	a := make([]uint64, 100)
	for i := range a {
		a[i] = child.Uint64()
	}
	// The parent continues its own stream and should not replay the child's.
	match := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == a[i] {
			match++
		}
	}
	if match > 2 {
		t.Fatalf("parent and child streams overlap in %d/100 positions", match)
	}
}

// TestSplitIsPure verifies the stream-splitting contract: Split(i) neither
// advances the parent nor depends on previous Split calls, so split order
// (and therefore worker scheduling order) is unobservable.
func TestSplitIsPure(t *testing.T) {
	a := New(31)
	b := New(31)
	// Split in different orders, interleaved with parent draws on one side
	// only after the splits.
	c2a := a.Split(2)
	c0a := a.Split(0)
	c0b := b.Split(0)
	c2b := b.Split(2)
	for i := 0; i < 50; i++ {
		if c0a.Uint64() != c0b.Uint64() {
			t.Fatal("Split(0) depends on split order")
		}
		if c2a.Uint64() != c2b.Uint64() {
			t.Fatal("Split(2) depends on split order")
		}
	}
	// The parents never advanced, so their streams still agree.
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent")
		}
	}
}

// TestSplitSiblingsDecorrelated checks that children with distinct indices
// (including consecutive ones) produce disjoint streams, and that children
// do not replay the parent.
func TestSplitSiblingsDecorrelated(t *testing.T) {
	parent := New(41)
	const draws = 200
	streams := map[uint64][]uint64{}
	for _, i := range []uint64{0, 1, 2, 3, 1000, 1 << 40} {
		child := parent.Split(i)
		vals := make([]uint64, draws)
		for k := range vals {
			vals[k] = child.Uint64()
		}
		streams[i] = vals
	}
	keys := []uint64{0, 1, 2, 3, 1000, 1 << 40}
	for x := 0; x < len(keys); x++ {
		for y := x + 1; y < len(keys); y++ {
			match := 0
			for k := 0; k < draws; k++ {
				if streams[keys[x]][k] == streams[keys[y]][k] {
					match++
				}
			}
			if match > 2 {
				t.Fatalf("children %d and %d overlap in %d/%d positions", keys[x], keys[y], match, draws)
			}
		}
	}
	match := 0
	for k := 0; k < draws; k++ {
		if parent.Uint64() == streams[0][k] {
			match++
		}
	}
	if match > 2 {
		t.Fatalf("parent replays child 0 in %d/%d positions", match, draws)
	}
}

// TestSplitDeterministic pins that equal (seed, index) pairs give equal
// child streams.
func TestSplitDeterministic(t *testing.T) {
	c1 := New(7).Split(5)
	c2 := New(7).Split(5)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("Split(5) streams diverged at step %d", i)
		}
	}
}

func TestShuffleCoversArrangements(t *testing.T) {
	s := New(37)
	seen := map[[3]int]bool{}
	for i := 0; i < 600; i++ {
		arr := [3]int{0, 1, 2}
		s.Shuffle(3, func(a, b int) { arr[a], arr[b] = arr[b], arr[a] })
		seen[arr] = true
	}
	if len(seen) != 6 {
		t.Fatalf("Shuffle produced %d/6 arrangements", len(seen))
	}
}

// TestNormTakesTwoDraws pins Norm's stream contract: k Norm calls leave the
// Source exactly where Skip(2*k) does, so every later draw is bit-identical.
func TestNormTakesTwoDraws(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for _, k := range []int{0, 1, 2, 3, 17, 34} {
			a, b := New(seed), New(seed)
			for i := 0; i < k; i++ {
				a.Norm(0.5, 2)
			}
			b.Skip(2 * k)
			for i := 0; i < 100; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("seed %d, k=%d: draw %d after Norm is %#x, after Skip(%d) %#x", seed, k, i, x, 2*k, y)
				}
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Norm(0, 1)
	}
}
