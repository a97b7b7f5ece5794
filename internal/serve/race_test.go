package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vesta/internal/obs"
	"vesta/internal/oracle"
	"vesta/internal/sim"
)

// TestSoakPredictorsVsHotSwappers is the race/soak test from the issue: N
// goroutines issue predictions while M goroutines hot-swap snapshots via
// Absorb. Run under -race in tier-1. Every response carries the snapshot
// consistency token (epoch, workloads): a snapshot absorbed e times over the
// 13-source base must report exactly 13+e workloads, so any prediction that
// observed a half-published snapshot — an epoch from one state paired with a
// graph from another — fails the invariant below.
func TestSoakPredictorsVsHotSwappers(t *testing.T) {
	const (
		predictors           = 4
		requestsPerPredictor = 12
		swappers             = 2
		absorbsPerSwapper    = 3
	)
	s := newTestServer(t, Config{
		Workers:   4,
		QueueSize: 64,
		BatchSize: 8,
		CacheSize: 32, // small: exercise eviction under contention
		Tracer:    obs.New(),
	})

	// One completed prediction supplies the (label weights, pruned vector)
	// payload every absorb reuses under a unique name.
	seedPred, err := s.Snapshot().PredictFast(mustApp(t, "Spark-grep"),
		oracle.NewMeter(sim.New(sim.DefaultConfig()), 99))
	if err != nil {
		t.Fatal(err)
	}

	apps := []string{"Spark-kmeans", "Spark-lr", "Spark-sort", "Spark-grep"}
	var violations atomic.Int64
	var wg sync.WaitGroup

	for g := 0; g < predictors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lastEpoch := uint64(0)
			for i := 0; i < requestsPerPredictor; i++ {
				req := Request{
					App:  apps[(g+i)%len(apps)],
					Seed: uint64(g*100 + i%3 + 1), // mix of cache hits and misses
					Top:  3,
				}
				resp, err := s.Predict(context.Background(), req)
				if err != nil {
					t.Errorf("predictor %d: %v", g, err)
					return
				}
				if resp.Workloads != baseWorkloads+int(resp.Epoch) {
					violations.Add(1)
					t.Errorf("torn snapshot observed: epoch %d with %d workloads (want %d)",
						resp.Epoch, resp.Workloads, baseWorkloads+int(resp.Epoch))
				}
				// atomic.Pointer loads are sequentially consistent, so one
				// goroutine can never see the epoch move backwards.
				if resp.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", resp.Epoch, lastEpoch)
				}
				lastEpoch = resp.Epoch
			}
		}(g)
	}

	for g := 0; g < swappers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < absorbsPerSwapper; i++ {
				name := fmt.Sprintf("soak-target-%d-%d", g, i)
				if err := s.Absorb(name, seedPred.LabelWeights, seedPred.PrunedVec); err != nil {
					t.Errorf("swapper %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	wg.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d consistency violations", n)
	}
	st := s.Stats()
	wantSwaps := int64(swappers * absorbsPerSwapper)
	if st.Swaps != wantSwaps || st.Epoch != uint64(wantSwaps) {
		t.Fatalf("swaps = %d, epoch = %d, want %d", st.Swaps, st.Epoch, wantSwaps)
	}
	if st.Workloads != baseWorkloads+int(wantSwaps) {
		t.Fatalf("final workloads = %d, want %d", st.Workloads, baseWorkloads+int(wantSwaps))
	}
	if st.Requests != predictors*requestsPerPredictor {
		t.Fatalf("requests = %d, want %d", st.Requests, predictors*requestsPerPredictor)
	}
}
