package core

import (
	"bytes"
	"strings"
	"testing"

	"vesta/internal/cloud"
)

// tinyKnowledge is the smallest snapshot encoding, up to its plan field,
// that DecodeSnapshot accepts: two labels, two source workloads and two VM
// types of the default catalog.
const tinyKnowledge = `{"epoch":3,"knowledge":{"labels":["a","b"],"kept_features":[0,1],` +
	`"kmeans_centroids":[[0.1,0.2],[0.3,0.4]],` +
	`"graph":{"workloads":["s1","s2"],"labels":["a","b"],"vms":["m5.xlarge","z1d.2xlarge"],` +
	`"is_source":[true,true],"workload_label":[[0.7,0.3],[0.2,0.8]],"label_vm":[[1,0.5],[0.5,1]]},` +
	`"source_names":["s1","s2"],"source_vectors":[[0.1,0.2],[0.3,0.4]],` +
	`"source_memberships":[[0.7,0.3],[0.2,0.8]],"sigma":0.5,` +
	`"best_times":{"s1":10},"times":{"s1":{"m5.xlarge":10}},"offline_runs":4}`

// tinySnapshot adds the plan field: source factors X (2 sources x the
// default latent dim 4) and T (2 VMs x 4), label factors L (2 labels x 4) and
// the plan solve's epoch count.
const tinySnapshot = tinyKnowledge + `,"plan":{"x":[[1,2,3,4],[5,6,7,8]],"t":[[1,2,3,4],[5,6,7,8]],` +
	`"l":[[0.1,0.2,0.3,0.4],[0.5,0.6,0.7,0.8]],"epochs":57}}`

// raggedSnapshots are malformed variants of tinySnapshot whose matrices do
// not have the shapes prediction indexes them with — each one panicked the
// decoder (or the first predict or encode after it) before shapes were
// validated.
func raggedSnapshots() map[string]string {
	return map[string]string{
		"plan l":               strings.Replace(tinySnapshot, `"l":[[0.1,0.2,0.3,0.4],`, `"l":[[1],`, 1),
		"plan x":               strings.Replace(tinySnapshot, `"x":[[1,2,3,4],`, `"x":[[],`, 1),
		"plan without x and t": strings.Replace(tinySnapshot, `"x":[[1,2,3,4],[5,6,7,8]],"t":[[1,2,3,4],[5,6,7,8]],`, ``, 1),
		"centroids":            strings.Replace(tinySnapshot, `"kmeans_centroids":[[0.1,0.2],`, `"kmeans_centroids":[[0.1],`, 1),
		"source vectors":       strings.Replace(tinySnapshot, `"source_vectors":[[0.1,0.2],`, `"source_vectors":[[],`, 1),
		"source memberships":   strings.Replace(tinySnapshot, `"source_memberships":[[0.7,0.3],`, `"source_memberships":[[0.7],`, 1),
		"kept feature":         strings.Replace(tinySnapshot, `"kept_features":[0,1]`, `"kept_features":[0,100000]`, 1),
		"graph labels":         strings.Replace(tinySnapshot, `"labels":["a","b"],"vms"`, `"labels":["a"],"vms"`, 1),
	}
}

func fuzzConfig() (Config, []cloud.VMType) { return Config{Seed: 1}, cloud.Catalog120() }

// TestDecodeTinySnapshot pins the fuzz seed: it decodes with the plan ready
// and re-encodes to the same bytes.
func TestDecodeTinySnapshot(t *testing.T) {
	cfg, cat := fuzzConfig()
	sn, err := DecodeSnapshot(strings.NewReader(tinySnapshot), cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !sn.PlanReady() || sn.Epoch() != 3 {
		t.Fatalf("decoded plan ready %v, epoch %d; want true, 3", sn.PlanReady(), sn.Epoch())
	}
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if want := tinySnapshot + "\n"; buf.String() != want {
		t.Fatalf("re-encodes to\n%s\nwant\n%s", buf.Bytes(), want)
	}
}

// TestDecodeSnapshotRejectsRaggedRows: non-rectangular matrices in the plan
// or knowledge fields are decode errors, never panics.
func TestDecodeSnapshotRejectsRaggedRows(t *testing.T) {
	cfg, cat := fuzzConfig()
	for name, in := range raggedSnapshots() {
		if in == tinySnapshot {
			t.Fatalf("%s: variant is identical to its seed", name)
		}
		if _, err := DecodeSnapshot(strings.NewReader(in), cfg, cat); err == nil {
			t.Errorf("%s: malformed snapshot decoded", name)
		}
	}
}

// tinyDivergent has no plan field and a source membership so large that the
// plan solve overflows.
var tinyDivergent = strings.Replace(tinyKnowledge,
	`"source_memberships":[[0.7,0.3],`, `"source_memberships":[[1e+200,0.3],`, 1) + "}"

// TestDivergentPlanSolveFailsClosed: a plan solve that overflows is an
// error, not a plan of NaNs — the snapshot still encodes (without a plan
// field) and fast-path predictions refuse instead of serving garbage.
func TestDivergentPlanSolveFailsClosed(t *testing.T) {
	cfg, cat := fuzzConfig()
	sn, err := DecodeSnapshot(strings.NewReader(tinyDivergent), cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := sn.PreparePlan(); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("PreparePlan error = %v, want a divergence error", err)
	}
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != tinyDivergent+"\n" {
		t.Fatalf("encoding = %s, want the input back", buf.Bytes())
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the checkpoint decoder — the
// path checkpoints, follower bootstrap and POST /rollout/stage all take.
// Decoding must never panic, and whatever decodes successfully must encode,
// with that encoding a fixed point of decode-then-encode. The checked-in
// corpus (testdata/fuzz/FuzzDecodeSnapshot) holds every malformed input above.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte(tinySnapshot))
	cfg, cat := fuzzConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := DecodeSnapshot(bytes.NewReader(data), cfg, cat)
		if err != nil {
			return // rejection is fine; panics are not
		}
		var first bytes.Buffer
		if err := sn.Encode(&first); err != nil {
			t.Fatalf("decoded snapshot does not encode: %v", err)
		}
		again, err := DecodeSnapshot(bytes.NewReader(first.Bytes()), cfg, cat)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("decode/encode is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
