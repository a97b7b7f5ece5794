package serve

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"vesta/internal/core"
)

// replayCorpus is the recorded request sequence for the determinism proof:
// a mix of apps, seeds, top values, input overrides, and exact repeats (the
// repeats hit the cache on cached servers and recompute on NoCache servers —
// either way the bytes must match).
func replayCorpus() []Request {
	reqs := []Request{
		{App: "Spark-kmeans"},
		{App: "Spark-lr", Seed: 2, Top: 5},
		{App: "Spark-sort", Seed: 3, Top: 1},
		{App: "Spark-grep", Seed: 4, Top: 120},
		{App: "Spark-page-rank", Seed: 5},
		{App: "Spark-bayes", Seed: 2, Top: 7},
		{App: "Spark-lr", InputGB: 64, Seed: 2, Top: 5},
		{App: "Spark-kmeans", Seed: 9, Top: 3},
	}
	// Repeat the whole sequence so every request also runs against a warm
	// cache within a single replay.
	return append(reqs, reqs...)
}

// replay answers the corpus concurrently (exercising batch formation) and
// returns the response bodies in corpus order.
func replay(t *testing.T, s *Server, corpus []Request) [][]byte {
	t.Helper()
	bodies := make([][]byte, len(corpus))
	var wg sync.WaitGroup
	for i, req := range corpus {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			body, err := s.PredictBytes(context.Background(), req)
			if err != nil {
				t.Errorf("request %d (%+v): %v", i, req, err)
				return
			}
			bodies[i] = body
		}(i, req)
	}
	wg.Wait()
	return bodies
}

// TestReplayByteIdentical is the serving extension of the repo's offline
// bit-identical contract: the same request sequence replayed at -workers
// 1/4/16, with and without the response cache, cold and warm, produces
// byte-identical bodies for every request.
func TestReplayByteIdentical(t *testing.T) {
	corpus := replayCorpus()
	configs := []struct {
		name string
		cfg  Config
	}{
		{"workers=1", Config{Workers: 1}},
		{"workers=4", Config{Workers: 4, BatchSize: 4}},
		{"workers=16", Config{Workers: 16, BatchSize: 32}},
		{"workers=4,no-cache", Config{Workers: 4, NoCache: true}},
		{"workers=4,cache=2", Config{Workers: 4, CacheSize: 2}}, // constant eviction
	}

	var reference [][]byte
	for _, tc := range configs {
		s := newTestServer(t, tc.cfg)
		bodies := replay(t, s, corpus)
		if t.Failed() {
			t.Fatalf("%s: replay failed", tc.name)
		}
		if reference == nil {
			reference = bodies
			continue
		}
		for i := range corpus {
			if !bytes.Equal(reference[i], bodies[i]) {
				t.Errorf("%s: request %d bytes diverge\n ref: %s\n got: %s",
					tc.name, i, reference[i], bodies[i])
			}
		}
	}

	// A second replay on a fresh warm server must match too: cache hits
	// return exactly the bytes a cold compute produced.
	s := newTestServer(t, Config{Workers: 4})
	cold := replay(t, s, corpus)
	warm := replay(t, s, corpus)
	for i := range corpus {
		if !bytes.Equal(cold[i], warm[i]) {
			t.Errorf("warm replay diverges at request %d", i)
		}
		if !bytes.Equal(reference[i], cold[i]) {
			t.Errorf("second server diverges from reference at request %d", i)
		}
	}
	if st := s.Stats(); st.CacheHits == 0 {
		t.Error("warm replay produced no cache hits")
	}
}

// TestReplayModesByteIdentical extends the determinism sweep of DESIGN.md
// §12 to the plan's origins: the serving arm (plan fold-in) replays
// byte-identically at every worker count, and a server rebuilt from an
// encoded/decoded snapshot reproduces it exactly because the plan travels
// in the encoding.
func TestReplayModesByteIdentical(t *testing.T) {
	corpus := replayCorpus()
	var reference [][]byte
	for _, workers := range []int{1, 4, 16} {
		s := newTestServer(t, Config{Workers: workers})
		bodies := replay(t, s, corpus)
		if t.Failed() {
			t.Fatalf("workers=%d: replay failed", workers)
		}
		if reference == nil {
			reference = bodies
			continue
		}
		for i := range corpus {
			if !bytes.Equal(reference[i], bodies[i]) {
				t.Errorf("workers=%d: request %d bytes diverge", workers, i)
			}
		}
	}

	// A snapshot round-tripped through the codec carries its plan: a server
	// over the decoded copy serves the same bytes without ever re-solving.
	base := testSnapshot(t)
	var buf bytes.Buffer
	if err := base.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := core.DecodeSnapshot(&buf, base.Config(), base.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.PlanReady() {
		t.Fatal("decoded snapshot lost the precomputed plan")
	}
	s, err := New(decoded, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	bodies := replay(t, s, corpus)
	if t.Failed() {
		t.Fatal("decoded-snapshot replay failed")
	}
	for i := range corpus {
		if !bytes.Equal(reference[i], bodies[i]) {
			t.Errorf("decoded-snapshot server: request %d diverges from the fresh server", i)
		}
	}
}

// TestResponseBytesAreCanonicalJSON pins the exact serialization: stable
// field order, shortest-round-trip floats, no schedule-dependent fields.
func TestResponseBytesAreCanonicalJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	body, err := s.PredictBytes(context.Background(), Request{App: "Spark-kmeans", Top: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	reenc, err := encodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, reenc) {
		t.Fatalf("decode/encode round trip changed bytes:\n was: %s\n now: %s", body, reenc)
	}
	wantPrefix := fmt.Sprintf(`{"target":"Spark-kmeans","epoch":0,"workloads":%d,"catalog_version":0,"best":"`, baseWorkloads)
	if !bytes.HasPrefix(body, []byte(wantPrefix)) {
		t.Fatalf("body prefix = %s, want %s", body[:min(len(body), 80)], wantPrefix)
	}
}
