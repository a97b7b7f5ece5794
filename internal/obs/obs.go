// Package obs is the repository's zero-dependency observability layer:
// spans (phase timings), monotonic counters, events, and per-epoch gauge
// streams, collected by a Tracer and serialized as deterministic JSONL.
//
// The layer is built around two contracts:
//
//  1. Nil safety. Every method is safe on a nil *Tracer and returns
//     immediately, so instrumented hot paths (per-epoch SGD gauges, per-run
//     fault events) cost one pointer comparison when tracing is off. Callers
//     guard any extra work — string concatenation, field formatting — behind
//     Enabled().
//
//  2. Determinism. The serialized trace is a pure function of the
//     instrumented computation, never of its schedule: records are keyed by
//     a stable span key, sorted by (key, epoch, kind, ...) at write time,
//     counters are order-independent integer sums, and durations in the
//     trace come exclusively from the simulated clock. Wall-clock timings
//     (host-side work: PCA, K-Means, CMF solves) exist only on the verbose
//     human stream, which is explicitly outside the byte-identical contract.
//     Under those rules the same seed produces the same trace bytes at every
//     worker count, composing with the parallel engine's determinism
//     contract (DESIGN.md §7) instead of breaking it.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind classifies a trace record.
type Kind string

// The four record kinds of the span taxonomy (DESIGN.md §9).
const (
	KindSpan    Kind = "span"    // a named phase; sim-clock duration when available
	KindEvent   Kind = "event"   // a point occurrence (fault, retry, fallback)
	KindCounter Kind = "counter" // a monotonic integer total
	KindGauge   Kind = "gauge"   // one sample of a per-epoch stream
)

// Record is one deterministic trace entry. Only fields that are pure
// functions of the computation are serialized; wall-clock durations are
// deliberately absent (they live on the verbose stream).
type Record struct {
	Kind Kind
	// Key is the stable identity and primary sort key, e.g.
	// "offline/kmeans/inertia". Keys embed whatever context
	// (target, VM, attempt, restart) makes the record's content a pure
	// function of the key.
	Key string
	// Epoch indexes gauge samples within a stream (e.g. the restart
	// number); the secondary, numeric sort key.
	Epoch int
	// Value is the gauge sample.
	Value float64
	// N is the counter total or an integer event payload.
	N int64
	// SimSec is a simulated-clock duration (spans) or cost (events); NaN-free
	// and negative when not applicable (not serialized then).
	SimSec float64
	// Msg carries an event's human-readable payload; must be deterministic.
	Msg string
}

// Tracer collects records from any number of goroutines. The zero value is
// not used directly; New returns a ready Tracer and a nil *Tracer is the
// disabled tracer.
type Tracer struct {
	mu       sync.Mutex
	records  []Record
	counters map[string]int64
	maxes    map[string]int64
	sources  []func() any // registered by Read
	verbose  io.Writer
}

// New returns an enabled Tracer.
func New() *Tracer {
	return &Tracer{counters: map[string]int64{}, maxes: map[string]int64{}}
}

// Enabled reports whether the tracer records anything. It is the guard hot
// paths use before assembling keys or payloads.
func (t *Tracer) Enabled() bool { return t != nil }

// SetVerbose attaches a human-readable sink that receives one line per span
// end and event as they happen (the -v flag). Verbose lines may carry
// wall-clock timings and arrive in schedule order; they are outside the
// determinism contract. Pass nil to detach.
func (t *Tracer) SetVerbose(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.verbose = w
	t.mu.Unlock()
}

// Span is an in-flight phase started by Start. The zero Span (from a nil
// tracer) is inert.
type Span struct {
	t     *Tracer
	key   string
	start time.Time
}

// Start opens a span. The wall clock is read only when tracing is enabled
// and feeds the verbose stream exclusively — never the trace records.
func (t *Tracer) Start(key string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, key: key, start: time.Now()}
}

// End closes a wall-clock-only span: the trace records the span's existence
// (key, kind) with no duration; the verbose stream gets the wall timing.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.add(Record{Kind: KindSpan, Key: s.key, SimSec: -1},
		fmt.Sprintf("span  %-40s wall=%s", s.key, time.Since(s.start).Round(time.Microsecond)))
}

// EndSim closes a span whose duration is known on the simulated clock; the
// simulated seconds are serialized, the wall timing goes to verbose only.
func (s Span) EndSim(simSec float64) {
	if s.t == nil {
		return
	}
	s.t.add(Record{Kind: KindSpan, Key: s.key, SimSec: simSec},
		fmt.Sprintf("span  %-40s sim=%.3fs wall=%s", s.key, simSec, time.Since(s.start).Round(time.Microsecond)))
}

// Event records a point occurrence with a deterministic message.
func (t *Tracer) Event(key, msg string) {
	if t == nil {
		return
	}
	t.add(Record{Kind: KindEvent, Key: key, SimSec: -1, Msg: msg},
		fmt.Sprintf("event %-40s %s", key, msg))
}

// EventSim is Event carrying a simulated-clock cost (e.g. wasted cluster
// seconds of a killed run).
func (t *Tracer) EventSim(key, msg string, simSec float64) {
	if t == nil {
		return
	}
	t.add(Record{Kind: KindEvent, Key: key, SimSec: simSec, Msg: msg},
		fmt.Sprintf("event %-40s %s sim=%.3fs", key, msg, simSec))
}

// Count adds delta to the named monotonic counter. Integer addition is
// order-independent, so concurrent increments cannot perturb the trace.
func (t *Tracer) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// Max records the maximum of all values observed under name. Like integer
// addition, max is commutative and associative, so concurrent observers
// cannot perturb the serialized total — this is the aggregation the serving
// layer uses for schedule-adjacent quantities whose *peak* is deterministic
// even when the observation order is not (snapshot epoch, catalog version).
// Max totals serialize alongside the counters; a name must be used with
// either Count or Max, never both.
func (t *Tracer) Max(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	raise(t.maxes, name, v)
	t.mu.Unlock()
}

// Gauge records one sample of a per-epoch stream (SGD loss, learning rate,
// restart inertia). Samples of one stream share the key and are ordered by
// epoch in the serialized trace.
func (t *Tracer) Gauge(key string, epoch int, value float64) {
	if t == nil {
		return
	}
	t.add(Record{Kind: KindGauge, Key: key, Epoch: epoch, Value: value, SimSec: -1}, "")
}

// add appends a record and mirrors a non-empty line to the verbose sink.
func (t *Tracer) add(r Record, verboseLine string) {
	t.mu.Lock()
	t.records = append(t.records, r)
	w := t.verbose
	t.mu.Unlock()
	if w != nil && verboseLine != "" {
		fmt.Fprintln(w, "[obs]", verboseLine)
	}
}

// VerboseLine writes a line to the verbose sink only — no trace record. It
// is the outlet for schedule-dependent diagnostics (worker occupancy, wall
// timings) that must not enter the deterministic trace.
func (t *Tracer) VerboseLine(line string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	w := t.verbose
	t.mu.Unlock()
	if w != nil {
		fmt.Fprintln(w, "[obs]", line)
	}
}

// Read registers a component's stats as a counter source, so a counter the
// component already keeps is counted once, in its stats, and reaches the
// trace from there. At every read point (Counter, Records) the tracer calls
// stats and folds the returned struct's top-level integer fields tagged
// `trace:"name"` into the counter totals, summing sources that share a
// name; `trace:"name,max"` marks a peak, folded like Max. Zero fields are
// skipped, so a source counter appears once it first moves, as one counted
// through Count would. Nested fields are not read: a nested component
// registers its own stats. stats is called without the tracer's lock held,
// so it may take locks under which its component records events.
func (t *Tracer) Read(stats func() any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sources = append(t.sources, stats)
	t.mu.Unlock()
}

// Counter returns the current total of one counter (or Max aggregate).
func (t *Tracer) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	return t.totals()[name]
}

// totals merges the Count and Max aggregates with every source's tagged
// fields. Sources are called outside t.mu (see Read).
func (t *Tracer) totals() map[string]int64 {
	t.mu.Lock()
	sources := t.sources
	t.mu.Unlock()
	sums, peaks := map[string]int64{}, map[string]int64{}
	for _, stats := range sources {
		foldTagged(stats(), sums, peaks)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	for name, n := range t.counters {
		sums[name] += n
	}
	for name, n := range t.maxes {
		raise(peaks, name, n)
	}
	for name, n := range peaks {
		sums[name] = n // Count/Max name reuse is a caller bug; max wins
	}
	return sums
}

// foldTagged adds the nonzero `trace`-tagged integer fields of stats (a
// struct or a pointer to one) to sums, or to peaks for `,max` tags.
func foldTagged(stats any, sums, peaks map[string]int64) {
	v := reflect.Indirect(reflect.ValueOf(stats))
	if v.Kind() != reflect.Struct {
		return
	}
	for i := 0; i < v.NumField(); i++ {
		tag, ok := v.Type().Field(i).Tag.Lookup("trace")
		if !ok {
			continue
		}
		var n int64
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			n = f.Int()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			n = int64(f.Uint())
		default:
			continue
		}
		if n == 0 {
			continue
		}
		if name, peak := strings.CutSuffix(tag, ",max"); peak {
			raise(peaks, name, n)
		} else {
			sums[name] += n
		}
	}
}

// raise lifts m[name] to at least n.
func raise(m map[string]int64, name string, n int64) {
	if cur, ok := m[name]; !ok || n > cur {
		m[name] = n
	}
}

// Records returns the deterministic, sorted view of everything collected so
// far: spans, events and gauges in (key, epoch, kind, content) order, then
// counters materialized as KindCounter records sorted by name.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Record(nil), t.records...)
	t.mu.Unlock()
	totals := t.totals()
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}

	sort.Slice(out, func(a, b int) bool { return less(out[a], out[b]) })
	sort.Strings(names)
	for _, name := range names {
		out = append(out, Record{Kind: KindCounter, Key: name, N: totals[name], SimSec: -1})
	}
	return out
}

// less orders records by every serialized field, so any two distinct records
// have a schedule-independent order and equal records are interchangeable.
func less(a, b Record) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Msg != b.Msg {
		return a.Msg < b.Msg
	}
	if a.SimSec != b.SimSec {
		return a.SimSec < b.SimSec
	}
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.N < b.N
}

// WriteJSONL serializes the sorted records, one JSON object per line. The
// bytes are a pure function of the recorded multiset: same computation, same
// trace, at any worker count.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, r := range t.Records() {
		if _, err := bw.WriteString(r.jsonLine()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// jsonLine renders one record. Hand-rolled (field order fixed, shortest
// round-trip floats, zero fields omitted) so the bytes cannot drift with
// encoder versions.
func (r Record) jsonLine() string {
	var sb strings.Builder
	sb.WriteString(`{"kind":"`)
	sb.WriteString(string(r.Kind))
	sb.WriteString(`","key":`)
	sb.WriteString(strconv.Quote(r.Key))
	if r.Kind == KindGauge {
		sb.WriteString(`,"epoch":`)
		sb.WriteString(strconv.Itoa(r.Epoch))
		sb.WriteString(`,"value":`)
		sb.WriteString(formatFloat(r.Value))
	}
	if r.Kind == KindCounter {
		sb.WriteString(`,"n":`)
		sb.WriteString(strconv.FormatInt(r.N, 10))
	}
	if r.SimSec >= 0 {
		sb.WriteString(`,"sim_sec":`)
		sb.WriteString(formatFloat(r.SimSec))
	}
	if r.Msg != "" {
		sb.WriteString(`,"msg":`)
		sb.WriteString(strconv.Quote(r.Msg))
	}
	sb.WriteString("}\n")
	return sb.String()
}

// formatFloat renders a float64 with the shortest representation that
// round-trips. Non-finite values (a diverged SGD loss) are quoted so every
// line stays valid JSON.
func formatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.Quote(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// FormatValue exposes the trace's float rendering for reports that must
// match the JSONL bytes.
func FormatValue(v float64) string { return formatFloat(v) }
