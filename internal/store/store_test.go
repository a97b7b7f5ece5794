package store

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/metrics"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

func profileFor(t *testing.T, app, vm string) sim.Profile {
	t.Helper()
	a, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cloud.Find(cloud.Catalog120(), vm)
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(sim.Config{Repeats: 3}).Measure(a, v, 1, sim.Want{Features: metrics.AllFeatures, Trace: true})
}

func TestOpenFresh(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Dir() != dir {
		t.Fatalf("fresh store Len=%d Dir=%s", s.Len(), s.Dir())
	}
}

func TestPutAndFind(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(profileFor(t, "Spark-lr", "m5.xlarge"), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(profileFor(t, "Spark-lr", "c5.xlarge"), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(profileFor(t, "Hadoop-lr", "m5.xlarge"), false); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Find(Query{App: "Spark-lr"}); len(got) != 2 {
		t.Fatalf("Find(app) = %d records", len(got))
	}
	if got := s.Find(Query{VM: "m5.xlarge"}); len(got) != 2 {
		t.Fatalf("Find(vm) = %d records", len(got))
	}
	if got := s.Find(Query{Framework: "Hadoop"}); len(got) != 1 {
		t.Fatalf("Find(framework) = %d records", len(got))
	}
	if got := s.Find(Query{App: "Spark-lr", VM: "c5.xlarge"}); len(got) != 1 {
		t.Fatalf("Find(app+vm) = %d records", len(got))
	}
	if got := s.Find(Query{App: "nope"}); len(got) != 0 {
		t.Fatal("Find(nope) returned records")
	}
}

func TestPersistenceAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir)
	if err := s1.Put(profileFor(t, "Spark-sort", "i3.2xlarge"), false); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store has %d records", s2.Len())
	}
	rec := s2.Find(Query{})[0]
	if rec.App != "Spark-sort" || rec.VM != "i3.2xlarge" || rec.P90Seconds <= 0 {
		t.Fatalf("record = %+v", rec)
	}
	if len(rec.Runs) != 3 {
		t.Fatalf("runs = %v", rec.Runs)
	}
}

func TestBestByTime(t *testing.T) {
	s, _ := Open(t.TempDir())
	for _, vm := range []string{"t3.small", "m5.2xlarge", "z1d.4xlarge"} {
		if err := s.Put(profileFor(t, "Spark-kmeans", vm), false); err != nil {
			t.Fatal(err)
		}
	}
	best, err := s.BestByTime("Spark-kmeans")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Find(Query{App: "Spark-kmeans"}) {
		if r.P90Seconds < best.P90Seconds {
			t.Fatalf("%s (%v) beats reported best %s (%v)", r.VM, r.P90Seconds, best.VM, best.P90Seconds)
		}
	}
	if _, err := s.BestByTime("unknown"); err == nil {
		t.Fatal("BestByTime(unknown) succeeded")
	}
}

func TestApps(t *testing.T) {
	s, _ := Open(t.TempDir())
	_ = s.Put(profileFor(t, "Spark-lr", "m5.large"), false)
	_ = s.Put(profileFor(t, "Hadoop-lr", "m5.large"), false)
	_ = s.Put(profileFor(t, "Spark-lr", "c5.large"), false)
	apps := s.Apps()
	if len(apps) != 2 || apps[0] != "Hadoop-lr" || apps[1] != "Spark-lr" {
		t.Fatalf("Apps = %v", apps)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	s, _ := Open(t.TempDir())
	p := profileFor(t, "Spark-lr", "m5.xlarge")
	if err := s.Put(p, true); err != nil {
		t.Fatal(err)
	}
	rec := s.Find(Query{})[0]
	if rec.TraceFile == "" {
		t.Fatal("trace not persisted")
	}
	tr, err := s.LoadTrace(rec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != p.Trace.Len() {
		t.Fatalf("trace length %d, want %d", tr.Len(), p.Trace.Len())
	}
	if math.Abs(tr.SampleSec-p.Trace.SampleSec) > 1e-6 {
		t.Fatalf("sample interval %v, want %v", tr.SampleSec, p.Trace.SampleSec)
	}
	for id := 0; id < 3; id++ {
		for i := 0; i < tr.Len(); i++ {
			if math.Abs(tr.Series[id][i]-p.Trace.Series[id][i]) > 1e-5 {
				t.Fatalf("series %d sample %d: %v vs %v", id, i, tr.Series[id][i], p.Trace.Series[id][i])
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTraceErrors(t *testing.T) {
	s, _ := Open(t.TempDir())
	if _, err := s.LoadTrace(Record{}); err == nil {
		t.Fatal("LoadTrace of traceless record succeeded")
	}
	if _, err := s.LoadTrace(Record{TraceFile: "missing.csv"}); err == nil {
		t.Fatal("LoadTrace of missing file succeeded")
	}
}

func TestCorruptIndexRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt index accepted")
	}
}

func TestCorruptTraceRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := os.WriteFile(filepath.Join(dir, "bad.csv"), []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadTrace(Record{TraceFile: "bad.csv"}); err == nil {
		t.Fatal("malformed trace accepted")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("Spark-svd++/x"); got != "Spark-svd___x" {
		t.Fatalf("sanitize = %q", got)
	}
}

func TestConcurrentPuts(t *testing.T) {
	s, _ := Open(t.TempDir())
	p := profileFor(t, "Spark-grep", "m5.large")
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- s.Put(p, false) }()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d after concurrent puts", s.Len())
	}
}

// TestPutRollsBackOnFlushFailure: a Put whose index flush fails must not
// leave the record in the in-memory index (memory and disk would diverge,
// and a later Put would silently resurrect the lost record).
func TestPutRollsBackOnFlushFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := profileFor(t, "Hadoop-terasort", "m5.xlarge")
	if err := s.Put(p, false); err != nil {
		t.Fatal(err)
	}
	// Make the index temp file uncreatable by replacing the store directory
	// path with a file.
	s.mu.Lock()
	s.idxPath = filepath.Join(dir, "no-such-dir", "index.json")
	s.mu.Unlock()
	if err := s.Put(p, false); err == nil {
		t.Fatal("Put with failing flush reported success")
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("failed Put left index at %d records, want 1", n)
	}
}

// TestTraceWriteLeavesNoTempDebris: trace writes must be atomic — after a
// successful Put only the final file exists, no .tmp residue.
func TestTraceWriteLeavesNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(profileFor(t, "Hadoop-terasort", "m5.xlarge"), true); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp debris left behind: %s", e.Name())
		}
	}
	rec := s.Find(Query{})[0]
	tr, err := s.LoadTrace(rec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("round-tripped trace is empty")
	}
}

// TestTraceRoundTripWithDropout: NaN samples from collector dropout must
// survive CSV serialization.
func TestTraceRoundTripWithDropout(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := profileFor(t, "Hadoop-terasort", "m5.xlarge")
	for id := range p.Trace.Series {
		p.Trace.Series[id][0] = math.NaN()
	}
	p.Trace.Dropped = 1
	if err := s.Put(p, true); err != nil {
		t.Fatal(err)
	}
	tr, err := s.LoadTrace(s.Find(Query{})[0])
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(tr.Series[0][0]) {
		t.Fatalf("NaN sample did not survive the round trip: %v", tr.Series[0][0])
	}
}
