package rng

import (
	"math"
	"strconv"
	"sync"
	"testing"
)

// stepped returns a copy of s advanced by n Uint64 draws, one at a time.
func stepped(s Source, n int) Source {
	for i := 0; i < n; i++ {
		s.Uint64()
	}
	return s
}

// TestSkipMatchesSteps: Skip(n) leaves the state exactly where n Uint64
// draws do, for every skip length the sampler can take (0..maxJump) and a
// few longer ones that chain jumps, from 1,000 freshly seeded states and
// from states deep in a stream.
func TestSkipMatchesSteps(t *testing.T) {
	lengths := []int{maxJump + 1, 2*maxJump + minJump - 1, 200}
	for n := 0; n <= maxJump; n++ {
		lengths = append(lengths, n)
	}
	deep := New(7)
	for seed := uint64(0); seed < 1000; seed++ {
		deep.Skip(int(seed % 97))
		for _, start := range []Source{*New(seed), *deep} {
			for _, n := range lengths {
				got := start
				got.Skip(n)
				if want := stepped(start, n); got != want {
					t.Fatalf("from state %#x: Skip(%d) gives state %#x, %d steps %#x",
						start.state, n, got.state, n, want.state)
				}
			}
		}
	}
}

// TestNormAfterSkip: a normal draw after a skip is bit-identical to one
// after stepping, so the sampler's kept series never see a skip.
func TestNormAfterSkip(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for n := 0; n <= maxJump; n++ {
			a, b := *New(seed), stepped(*New(seed), n)
			a.Skip(n)
			if x, y := a.Norm(0.5, 0.08), b.Norm(0.5, 0.08); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("seed %d: Norm after Skip(%d) is %v, after stepping %v", seed, n, x, y)
			}
		}
	}
}

// TestSkipConcurrentFirstUse: goroutines that skip a length whose table no
// one has built yet race to build and publish it; each must still land on
// the state that many steps reach. Run it under -race.
func TestSkipConcurrentFirstUse(t *testing.T) {
	for n := minJump; n <= maxJump; n++ {
		jumps[n].Store(nil)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				got := *New(seed)
				got.Skip(n)
				if want := stepped(*New(seed), n); got != want {
					t.Errorf("seed %d: Skip(%d) on first use gives state %#x, %d steps %#x", seed, n, got.state, n, want.state)
				}
			}(uint64(g))
		}
		wg.Wait()
	}
}

// FuzzSkip: from any state, a skip of any length the sampler can take
// equals that many steps.
func FuzzSkip(f *testing.F) {
	f.Add(uint64(0), uint8(0))
	f.Add(uint64(1), uint8(minJump))
	f.Add(uint64(0x853c49e6748fea9b), uint8(maxJump))
	f.Add(^uint64(0), uint8(32))
	f.Fuzz(func(t *testing.T, state uint64, n uint8) {
		k := int(n) % (maxJump + 1)
		got := Source{state: state}
		got.Skip(k)
		if want := stepped(Source{state: state}, k); got != want {
			t.Fatalf("from state %#x: Skip(%d) gives state %#x, %d steps %#x", state, k, got.state, k, want.state)
		}
	})
}

// BenchmarkSkip times the sampler's skip lengths: 4 steps, the shortest
// jump, and the 12- and 32-draw jumps of the serving feature set.
func BenchmarkSkip(b *testing.B) {
	for _, n := range []int{4, minJump, 12, 32} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			s := New(1)
			for i := 0; i < b.N; i++ {
				s.Skip(n)
			}
		})
	}
}
