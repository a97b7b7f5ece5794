package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"vesta/internal/bipartite"
	"vesta/internal/rng"
	"vesta/internal/stats"
)

// calibrate depends only on its arguments, so the tests drive it on a bare
// System with synthetic rankings instead of paying for a trained model.

func scoreRanking(scores map[string]float64) []bipartite.VMScore {
	out := make([]bipartite.VMScore, 0, len(scores))
	for vm, sc := range scores {
		out = append(out, bipartite.VMScore{VM: vm, Score: sc})
	}
	return out
}

func TestCalibrateRecoversPowerLaw(t *testing.T) {
	// Observations drawn exactly from t = a * score^(-b) with a slope inside
	// the clamp range must be extrapolated with the same law.
	const a, b = 120.0, 1.7
	scores := map[string]float64{
		"vm-a": 0.95, "vm-b": 0.7, "vm-c": 0.45, "vm-d": 0.25, "vm-e": 0.6,
	}
	observed := map[string]float64{}
	for _, vm := range []string{"vm-a", "vm-b", "vm-c", "vm-d"} {
		observed[vm] = a * math.Pow(scores[vm], -b)
	}
	pred := (&System{}).calibrate(scoreRanking(scores), observed)
	want := a * math.Pow(scores["vm-e"], -b)
	if math.Abs(pred["vm-e"]-want)/want > 1e-9 {
		t.Fatalf("unobserved vm-e predicted %v, want %v (a=%v b=%v)", pred["vm-e"], want, a, b)
	}
}

func TestCalibrateClampsSlope(t *testing.T) {
	// A data-implied slope outside [0.5, 3] is clamped, keeping predictions
	// physically sensible on noisy observations.
	scores := map[string]float64{"vm-a": 0.9, "vm-b": 0.3, "vm-c": 0.6}
	observed := map[string]float64{
		// Implied b = 10: time ratio (0.9/0.3)^10 across the two observations.
		"vm-a": 100,
		"vm-b": 100 * math.Pow(0.9/0.3, 10),
	}
	pred := (&System{}).calibrate(scoreRanking(scores), observed)
	// With b clamped to 3, a = exp(mean(ly) + 3*mean(lx)).
	lx := []float64{math.Log(0.9), math.Log(0.3)}
	ly := []float64{math.Log(observed["vm-a"]), math.Log(observed["vm-b"])}
	aClamped := math.Exp((ly[0]+ly[1])/2 + 3*(lx[0]+lx[1])/2)
	want := aClamped * math.Pow(0.6, -3)
	if math.Abs(pred["vm-c"]-want)/want > 1e-9 {
		t.Fatalf("clamped prediction %v, want %v", pred["vm-c"], want)
	}
}

func TestCalibrateSingleObservationFallback(t *testing.T) {
	// One usable observation cannot identify a slope: b = 1, a = t0 * s0.
	scores := map[string]float64{"vm-a": 0.8, "vm-b": 0.4}
	observed := map[string]float64{"vm-a": 50}
	pred := (&System{}).calibrate(scoreRanking(scores), observed)
	want := 50 * 0.8 / 0.4 // a / score = t0*s0/s
	if math.Abs(pred["vm-b"]-want)/want > 1e-9 {
		t.Fatalf("single-observation prediction %v, want %v", pred["vm-b"], want)
	}
}

func TestCalibrateDegenerateScoresFallBackToB1(t *testing.T) {
	// Two observations at the same score have zero spread in log-score: the
	// slope is unidentifiable and the b = 1 fallback anchors on the first
	// (sorted-VM-order) observation.
	scores := map[string]float64{"vm-a": 0.5, "vm-b": 0.5, "vm-c": 0.25}
	observed := map[string]float64{"vm-a": 40, "vm-b": 44}
	pred := (&System{}).calibrate(scoreRanking(scores), observed)
	want := 40 * 0.5 / 0.25
	if math.Abs(pred["vm-c"]-want)/want > 1e-9 {
		t.Fatalf("degenerate-score prediction %v, want %v", pred["vm-c"], want)
	}
}

func TestCalibrateZeroScoreIsInf(t *testing.T) {
	// A VM the graph walk gives (near-)zero affinity has no finite prediction.
	scores := map[string]float64{"vm-a": 0.8, "vm-b": 0.4, "vm-zero": 0}
	observed := map[string]float64{"vm-a": 30, "vm-b": 70}
	pred := (&System{}).calibrate(scoreRanking(scores), observed)
	if !math.IsInf(pred["vm-zero"], 1) {
		t.Fatalf("zero-score VM predicted %v, want +Inf", pred["vm-zero"])
	}
}

func TestCalibrateObservedPassthrough(t *testing.T) {
	// Observed VMs must report their measured time exactly, even when the
	// fitted law disagrees (measurements are ground truth, fits are not).
	scores := map[string]float64{"vm-a": 0.9, "vm-b": 0.5, "vm-c": 0.2}
	observed := map[string]float64{"vm-a": 10, "vm-b": 400, "vm-c": 55}
	pred := (&System{}).calibrate(scoreRanking(scores), observed)
	for vm, sec := range observed {
		if pred[vm] != sec {
			t.Fatalf("observed %s predicted %v, want exact passthrough %v", vm, pred[vm], sec)
		}
	}
}

func TestCalibrateNoObservations(t *testing.T) {
	// With nothing observed the identity law (a = b = 1) still yields a
	// finite, monotone prediction per positive score.
	scores := map[string]float64{"vm-a": 0.5, "vm-b": 0.25}
	pred := (&System{}).calibrate(scoreRanking(scores), map[string]float64{})
	if pred["vm-a"] != 2 || pred["vm-b"] != 4 {
		t.Fatalf("identity-law predictions %v, want 1/score", pred)
	}
}

// refCalibrate is a verbatim copy of calibrate as it was when it looked
// scores up in a map built from the whole ranking. Only the name is changed.
func refCalibrate(ranking []bipartite.VMScore, observed map[string]float64) map[string]float64 {
	scoreOf := make(map[string]float64, len(ranking))
	for _, r := range ranking {
		scoreOf[r.VM] = r.Score
	}
	// Collect (log score, log time) pairs from the measurements, in sorted
	// VM order: map iteration order would vary the summation order of the
	// least-squares fit below and leak last-bit float differences into the
	// predictions, breaking the bit-identical reproducibility contract.
	vms := make([]string, 0, len(observed))
	for vm := range observed {
		vms = append(vms, vm)
	}
	sort.Strings(vms)
	var lx, ly []float64
	for _, vm := range vms {
		if sc, sec := scoreOf[vm], observed[vm]; sc > 1e-9 && sec > 0 {
			lx = append(lx, math.Log(sc))
			ly = append(ly, math.Log(sec))
		}
	}
	a, b := 1.0, 1.0
	switch {
	case len(lx) >= 2 && stats.StdDev(lx) > 1e-6:
		// Least-squares slope, clamped to a physically sensible range.
		b = -stats.Covariance(lx, ly) / stats.Variance(lx)
		b = math.Max(0.5, math.Min(3, b))
		a = math.Exp(stats.Mean(ly) + b*stats.Mean(lx))
	case len(lx) >= 1:
		a = math.Exp(ly[0] + lx[0]) // single observation: b = 1 fallback
	}
	out := make(map[string]float64, len(ranking))
	for _, r := range ranking {
		if r.Score > 1e-9 {
			out[r.VM] = a * math.Pow(r.Score, -b)
		} else {
			out[r.VM] = math.Inf(1)
		}
	}
	// Observed VMs report their measured time exactly.
	for vm, sec := range observed {
		out[vm] = sec
	}
	return out
}

// TestCalibrateMatchesReference holds calibrate to refCalibrate bit for bit
// on 1,000 random rankings and observation sets: rankings of 1 to 130 VMs
// in any order, with tied scores and scores at or below the 1e-9 floor;
// observations of 0 to 5 VMs, among them VMs the ranking lacks, single
// observations and non-positive times.
func TestCalibrateMatchesReference(t *testing.T) {
	src := rng.New(27)
	cases := map[string]int{}
	for trial := 0; trial < 1000; trial++ {
		n := 1 + src.Intn(130)
		ranking := make([]bipartite.VMScore, n)
		for i := range ranking {
			score := src.Range(0.01, 1)
			switch src.Intn(8) {
			case 0:
				score = 1e-9 * src.Float64() // at or below the floor
			case 1:
				score = 0.5 // a tie
			}
			ranking[i] = bipartite.VMScore{VM: fmt.Sprintf("vm%03d", src.Intn(1000)), Score: score}
		}
		observed := map[string]float64{}
		for k := src.Intn(6); k > 0; k-- {
			vm := ranking[src.Intn(n)].VM
			if src.Intn(5) == 0 {
				vm = fmt.Sprintf("gone%d", src.Intn(10)) // not in the ranking
				cases["missing"]++
			}
			sec := src.Range(1, 5000)
			if src.Intn(10) == 0 {
				sec = 0
			}
			observed[vm] = sec
		}
		if len(observed) == 1 {
			cases["single"]++
		}
		got, want := (&System{}).calibrate(ranking, observed), refCalibrate(ranking, observed)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d predictions, reference %d", trial, len(got), len(want))
		}
		for vm, w := range want {
			if g, ok := got[vm]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("trial %d: %s predicted %v, reference %v", trial, vm, g, w)
			}
		}
	}
	if cases["missing"] == 0 || cases["single"] == 0 {
		t.Fatalf("the trials miss a case: %v", cases)
	}
}
