package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/sim"
	"vesta/internal/wal"
	"vesta/internal/workload"
)

var (
	candOnce sync.Once
	candVal  *core.Snapshot
	candErr  error
)

// candidateSnapshot absorbs one target on top of the shared base: the
// epoch-1 "new version" the staging tests promote.
func candidateSnapshot(t testing.TB) *core.Snapshot {
	t.Helper()
	base := testSnapshot(t)
	candOnce.Do(func() {
		app, err := workload.ByName("Spark-kmeans")
		if err != nil {
			candErr = err
			return
		}
		pred, err := base.PredictFast(app, oracle.NewMeter(sim.New(sim.DefaultConfig()), 42))
		if err != nil {
			candErr = err
			return
		}
		candVal, candErr = base.Absorb("rollout-target", pred.LabelWeights, pred.PrunedVec)
	})
	if candErr != nil {
		t.Fatal(candErr)
	}
	return candVal
}

func encodeSnapshot(t testing.TB, sn *core.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStageCommitLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cand := candidateSnapshot(t)

	if err := s.Stage("v1", cand); err != nil {
		t.Fatal(err)
	}
	if got := s.StagedVersion(); got != "v1" {
		t.Fatalf("StagedVersion = %q, want v1", got)
	}
	if s.Snapshot() != cand {
		t.Fatal("staged candidate not published")
	}
	// Probes must keep advertising the incumbent epoch while uncommitted.
	if got := s.committedEpoch(); got != 0 {
		t.Fatalf("committedEpoch while staged = %d, want 0", got)
	}
	// Mutations freeze until the stage resolves.
	if err := s.Absorb("frozen", nil, nil); !errors.Is(err, ErrStaged) {
		t.Fatalf("Absorb while staged = %v, want ErrStaged", err)
	}
	if _, err := s.AbsorbApp(AbsorbRequest{Name: "frozen", App: "Spark-sort"}); !errors.Is(err, ErrStaged) {
		t.Fatalf("AbsorbApp while staged = %v, want ErrStaged", err)
	}
	// Predictions keep flowing — against the candidate.
	resp, err := s.Predict(context.Background(), Request{App: "Spark-sort"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 1 {
		t.Fatalf("staged predict epoch = %d, want 1", resp.Epoch)
	}
	// Idempotent re-stage; conflicting second version refused.
	if err := s.Stage("v1", cand); err != nil {
		t.Fatalf("re-stage of staged version = %v", err)
	}
	if err := s.Stage("v2", cand); !errors.Is(err, ErrConflict) {
		t.Fatalf("second version while staged = %v, want ErrConflict", err)
	}
	if err := s.CommitStaged("v2"); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit of wrong version = %v, want ErrConflict", err)
	}

	if err := s.CommitStaged("v1"); err != nil {
		t.Fatal(err)
	}
	if got := s.StagedVersion(); got != "" {
		t.Fatalf("StagedVersion after commit = %q", got)
	}
	if got := s.CommittedVersion(); got != "v1" {
		t.Fatalf("CommittedVersion = %q, want v1", got)
	}
	if got := s.committedEpoch(); got != 1 {
		t.Fatalf("committedEpoch after commit = %d, want 1", got)
	}
	// Crash-replay idempotency: both verbs are no-ops for the committed version.
	if err := s.Stage("v1", cand); err != nil {
		t.Fatalf("re-stage of committed version = %v", err)
	}
	if err := s.CommitStaged("v1"); err != nil {
		t.Fatalf("re-commit of committed version = %v", err)
	}
	// Commit is the point of no return.
	if err := s.RevertStaged("v1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("revert after commit = %v, want ErrConflict", err)
	}
	// The freeze lifted.
	if _, err := s.AbsorbApp(AbsorbRequest{Name: "thawed", App: "Spark-sort"}); err != nil {
		t.Fatalf("absorb after commit: %v", err)
	}
	if st := s.Stats(); st.CommittedVersion != "v1" || st.StagedVersion != "" {
		t.Fatalf("stats versions = staged %q committed %q", st.StagedVersion, st.CommittedVersion)
	}
}

func TestStageRevertRestoresIncumbent(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	incumbent := s.Snapshot()
	if err := s.Stage("v1", candidateSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.RevertStaged("v1"); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot() != incumbent {
		t.Fatal("revert did not restore the incumbent snapshot")
	}
	if got := s.StagedVersion(); got != "" {
		t.Fatalf("StagedVersion after revert = %q", got)
	}
	// Idempotent: reverting an already-reverted (or never-staged) version is
	// a no-op, so a crashed coordinator can replay its rollback safely.
	if err := s.RevertStaged("v1"); err != nil {
		t.Fatalf("double revert = %v", err)
	}
	// A reverted version may be staged again (retry after a fixed gate).
	if err := s.Stage("v1", candidateSnapshot(t)); err != nil {
		t.Fatalf("re-stage after revert = %v", err)
	}
	if err := s.RevertStaged("v1"); err != nil {
		t.Fatal(err)
	}
}

func TestStageRefusesEpochRewind(t *testing.T) {
	cand := candidateSnapshot(t)
	s, err := New(cand, Config{Workers: 1}) // incumbent at epoch 1
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Stage("old", testSnapshot(t)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("staging an epoch rewind = %v, want ErrBadRequest", err)
	}
}

// TestStageCommitInstallsDurably: with a WAL that supports installation, the
// commit writes the candidate as the durable state — a restart recovers the
// new version, not the incumbent.
func TestStageCommitInstallsDurably(t *testing.T) {
	base := testSnapshot(t)
	dir := t.TempDir()
	m, rec, err := wal.Open(base, wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rec, Config{Workers: 1, WAL: m})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cand := candidateSnapshot(t)
	if err := s.Stage("v1", cand); err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got != 0 {
		t.Fatalf("staging touched durable state: wal epoch %d", got)
	}
	if err := s.CommitStaged("v1"); err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got != 1 {
		t.Fatalf("wal epoch after commit = %d, want 1", got)
	}
	m.Close()

	m2, rec2, err := wal.Open(base, wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !bytes.Equal(encodeSnapshot(t, rec2), encodeSnapshot(t, cand)) {
		t.Fatal("restart did not recover the committed candidate")
	}
}

func TestStageEncodedRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cand := candidateSnapshot(t)
	if err := s.StageEncoded("v1", encodeSnapshot(t, cand)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSnapshot(t, s.Snapshot()), encodeSnapshot(t, cand)) {
		t.Fatal("decoded staged candidate differs from the encoded one")
	}
	if err := s.RevertStaged("v1"); err != nil {
		t.Fatal(err)
	}
	if err := s.StageEncoded("v2", []byte("not a snapshot")); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("undecodable candidate = %v, want ErrBadRequest", err)
	}
}

// TestRolloutEndpoints drives the HTTP control plane end to end: stage via
// base64 snapshot, status, wrong-version commit 409, revert, and the gate
// that keeps the endpoints unmounted by default.
func TestRolloutEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RolloutControl: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, body any) (*http.Response, map[string]any) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp, out
	}

	cand := candidateSnapshot(t)
	resp, out := post("/rollout/stage", rolloutRequest{Version: "v1", Snapshot: encodeSnapshot(t, cand)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stage status = %d (%v)", resp.StatusCode, out)
	}
	if out["staged_version"] != "v1" {
		t.Fatalf("stage reply = %v", out)
	}
	// While staged, /healthz advertises the incumbent epoch plus the pending
	// version, and client mutations answer 409 with the "staged" code.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health["epoch"] != float64(0) || health["staged_version"] != "v1" {
		t.Fatalf("staged healthz = %v", health)
	}
	resp, out = post("/absorb", AbsorbRequest{Name: "x", App: "Spark-sort"})
	if resp.StatusCode != http.StatusConflict || out["code"] != "staged" {
		t.Fatalf("absorb while staged = %d %v, want 409 staged", resp.StatusCode, out)
	}
	resp, _ = post("/rollout/commit", rolloutRequest{Version: "nope"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wrong-version commit status = %d, want 409", resp.StatusCode)
	}
	resp, out = post("/rollout/revert", rolloutRequest{Version: "v1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revert status = %d (%v)", resp.StatusCode, out)
	}
	sr, err := http.Get(ts.URL + "/rollout/status")
	if err != nil {
		t.Fatal(err)
	}
	var status rolloutStatus
	if err := json.NewDecoder(sr.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if status.StagedVersion != "" || status.CommittedVersion != "" || status.Epoch != 0 {
		t.Fatalf("status after revert = %+v", status)
	}

	// Without RolloutControl the control plane is not mounted.
	plain := newTestServer(t, Config{Workers: 1})
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	pr, err := http.Post(tsPlain.URL+"/rollout/stage", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusNotFound {
		t.Fatalf("ungated rollout endpoint status = %d, want 404", pr.StatusCode)
	}
}
