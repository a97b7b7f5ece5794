package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestNilTracerIsSafe exercises every method on the disabled tracer; any
// panic fails the test.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Start("x")
	sp.End()
	tr.Start("y").EndSim(1.5)
	tr.Event("k", "m")
	tr.EventSim("k", "m", 2)
	tr.Count("c", 3)
	tr.Gauge("g", 0, 1)
	tr.Max("m", 4)
	tr.Read(func() any {
		return struct {
			N int64 `trace:"c"`
		}{N: 5}
	})
	tr.SetVerbose(&bytes.Buffer{})
	if tr.Counter("c") != 0 || tr.Counter("m") != 0 || tr.Records() != nil {
		t.Fatal("nil tracer leaked state")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicAcrossInsertionOrder records the same multiset of
// records in two different arrival orders (as a parallel schedule would) and
// demands byte-identical JSONL.
func TestDeterministicAcrossInsertionOrder(t *testing.T) {
	emit := func(order []int) string {
		tr := New()
		ops := []func(){
			func() { tr.Gauge("cmf/a/loss", 1, 0.5) },
			func() { tr.Gauge("cmf/a/loss", 0, 0.9) },
			func() { tr.Event("profile/app=x/vm=y", "retry") },
			func() { tr.Start("offline/pca").End() },
			func() { tr.Start("profile/app=x/vm=y").EndSim(12.25) },
			func() { tr.Count("meter.runs", 2) },
			func() { tr.Count("meter.runs", 1) },
			func() { tr.Gauge("cmf/a/loss", 10, 0.1) },
		}
		for _, i := range order {
			ops[i]()
		}
		var b bytes.Buffer
		if err := tr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := emit([]int{0, 1, 2, 3, 4, 5, 6, 7})
	b := emit([]int{7, 6, 5, 4, 3, 2, 1, 0})
	if a != b {
		t.Fatalf("trace depends on arrival order:\n%s\nvs\n%s", a, b)
	}
}

// TestGaugeStreamNumericEpochOrder: epoch 10 must sort after epoch 2, not
// lexicographically before it.
func TestGaugeStreamNumericEpochOrder(t *testing.T) {
	tr := New()
	tr.Gauge("s", 10, 1)
	tr.Gauge("s", 2, 2)
	recs := tr.Records()
	if len(recs) != 2 || recs[0].Epoch != 2 || recs[1].Epoch != 10 {
		t.Fatalf("gauge order wrong: %+v", recs)
	}
}

// TestCountersAggregateAndSort: counters merge by name and serialize sorted
// after the other records.
func TestCountersAggregateAndSort(t *testing.T) {
	tr := New()
	tr.Count("z", 1)
	tr.Count("a", 2)
	tr.Count("z", 4)
	tr.Event("m", "hi")
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Kind != KindEvent {
		t.Fatalf("events must precede counters: %+v", recs)
	}
	if recs[1].Key != "a" || recs[1].N != 2 || recs[2].Key != "z" || recs[2].N != 5 {
		t.Fatalf("counter records wrong: %+v", recs[1:])
	}
	if tr.Counter("z") != 5 {
		t.Fatalf("Counter(z) = %d", tr.Counter("z"))
	}
}

// TestJSONLLinesAreValidJSON parses every emitted line back.
func TestJSONLLinesAreValidJSON(t *testing.T) {
	tr := New()
	tr.Start(`sp"an\key`).EndSim(1.0 / 3.0)
	tr.Event("e", `msg with "quotes" and	tab`)
	tr.Gauge("g", 3, math.NaN())
	tr.Gauge("g", 4, math.Inf(1))
	tr.Count("c", 7)
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), b.String())
	}
	for _, ln := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", ln, err)
		}
		if m["kind"] == "" || m["key"] == "" {
			t.Fatalf("line missing kind/key: %q", ln)
		}
	}
}

// TestConcurrentRecordingIsDeterministic hammers one tracer from many
// goroutines twice and compares the traces.
func TestConcurrentRecordingIsDeterministic(t *testing.T) {
	emit := func() string {
		tr := New()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					key := "worker/" + string(rune('a'+g))
					tr.Gauge(key, i, float64(g*1000+i))
					tr.Count("total", 1)
				}
			}(g)
		}
		wg.Wait()
		var b bytes.Buffer
		if err := tr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := emit(), emit(); a != b {
		t.Fatal("concurrent trace not deterministic")
	}
}

// TestVerboseStream: -v lines are mirrored as they happen, and gauges stay
// silent (they would flood the stream at one line per epoch).
func TestVerboseStream(t *testing.T) {
	tr := New()
	var v bytes.Buffer
	tr.SetVerbose(&v)
	tr.Start("phase/x").End()
	tr.Event("ev/y", "happened")
	tr.Gauge("g", 0, 1)
	out := v.String()
	if !strings.Contains(out, "phase/x") || !strings.Contains(out, "ev/y") {
		t.Fatalf("verbose stream missing lines:\n%s", out)
	}
	if strings.Contains(out, `"g"`) || strings.Count(out, "\n") != 2 {
		t.Fatalf("verbose stream has unexpected lines:\n%s", out)
	}
}

// BenchmarkDisabledSpan measures the disabled-tracer cost on a hot path.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		if tr.Enabled() {
			tr.Gauge("k", i, 0)
		}
	}
}

// readStats is a component stats struct as Read sees it: tagged integer
// counters and a peak, plus fields Read must leave alone.
type readStats struct {
	Hits    int64  `json:"hits" trace:"c.hits"`
	Applied int    `trace:"c.applied"`
	Acks    uint64 `trace:"c.acks"`
	Peak    int64  `trace:"c.peak,max"`
	Idle    int64  `trace:"c.idle"` // stays zero: never serialized
	Depth   int64  // untagged gauge
	Note    string `trace:"c.note"` // not an integer
	Nested  struct {
		N int64 `trace:"c.nested"`
	}
}

// TestReadFoldsTaggedStats: sources sharing a name sum (peaks take the
// max), fold together with Count/Max totals, skip zero and untagged fields,
// and never descend into nested structs; a pointer source reads like a
// value and the fold happens at read time, not at registration.
func TestReadFoldsTaggedStats(t *testing.T) {
	tr := New()
	a := readStats{Hits: 2, Applied: 1, Peak: 3, Depth: 9, Note: "x"}
	a.Nested.N = 7
	b := &readStats{Hits: 5, Acks: 4, Peak: 8}
	tr.Read(func() any { return a })
	tr.Read(func() any { return b })
	tr.Count("c.hits", 1)
	tr.Max("c.peak", 6)
	b.Hits = 10 // read at serialization time

	want := map[string]int64{"c.acks": 4, "c.applied": 1, "c.hits": 13, "c.peak": 8}
	var got []string
	for _, r := range tr.Records() {
		if r.Kind != KindCounter || want[r.Key] != r.N {
			t.Fatalf("unexpected record %+v", r)
		}
		got = append(got, r.Key)
	}
	if strings.Join(got, ",") != "c.acks,c.applied,c.hits,c.peak" {
		t.Fatalf("counter keys %v", got)
	}
	for name, n := range want {
		if tr.Counter(name) != n {
			t.Fatalf("Counter(%s) = %d, want %d", name, tr.Counter(name), n)
		}
	}
	for _, name := range []string{"c.idle", "c.note", "c.nested"} {
		if tr.Counter(name) != 0 {
			t.Fatalf("Counter(%s) = %d, want 0", name, tr.Counter(name))
		}
	}
}

// TestReadCallsSourcesUnlocked: a source may record into the tracer while
// it is being read (a component holding its own lock across an event), and
// registering or reading stays safe from many goroutines.
func TestReadCallsSourcesUnlocked(t *testing.T) {
	tr := New()
	var mu sync.Mutex
	var n int64
	tr.Read(func() any {
		mu.Lock()
		defer mu.Unlock()
		tr.Event("c/read", "reading") // would deadlock if Read held t.mu
		return struct {
			N int64 `trace:"c.n"`
		}{n}
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Read(func() any { return nil }) // a source with nothing to fold
			for i := 0; i < 50; i++ {
				mu.Lock()
				n++
				tr.Count("c.direct", 1) // component lock held across a tracer call
				mu.Unlock()
				tr.Counter("c.n")
			}
		}()
	}
	wg.Wait()
	if tr.Counter("c.n") != 200 || tr.Counter("c.direct") != 200 {
		t.Fatalf("c.n = %d, c.direct = %d, want 200/200", tr.Counter("c.n"), tr.Counter("c.direct"))
	}
}
