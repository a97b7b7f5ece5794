package bench

import (
	"math"
	"strings"
	"testing"

	"vesta/internal/sim"
	"vesta/internal/workload"
)

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	// 11 paper figures + 5 ablations + 6 extensions.
	if len(Registry()) != 23 {
		t.Fatalf("registry has %d experiments, want 23", len(Registry()))
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig6")
	if err != nil || e.ID != "fig6" {
		t.Fatalf("ByID(fig6) = %+v, %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "bee"},
		Notes:   []string{"hello"},
	}
	tbl.AddRow("x", 1.234)
	tbl.AddRow("longer-cell", "v")
	out := tbl.Render()
	for _, want := range []string{"=== t: demo ===", "a", "bee", "1.2", "longer-cell", "note: hello", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableAddRowFormatting(t *testing.T) {
	tbl := &Table{Columns: []string{"c"}}
	tbl.AddRow(3.14159)
	if tbl.Rows[0][0] != "3.1" {
		t.Fatalf("float cell = %q", tbl.Rows[0][0])
	}
	tbl.AddRow(42)
	if tbl.Rows[1][0] != "42" {
		t.Fatalf("int cell = %q", tbl.Rows[1][0])
	}
}

func TestEnvTruthCaching(t *testing.T) {
	env := NewEnv(1)
	apps := workload.BySet(workload.SourceTesting)[:2]
	t1 := env.Truth("pair", apps)
	t2 := env.Truth("pair", apps)
	if t1 != t2 {
		t.Fatal("Truth did not cache")
	}
}

func TestEnvMeterIndependent(t *testing.T) {
	env := NewEnv(1)
	m1 := env.Meter(1)
	m2 := env.Meter(1)
	a := workload.BySet(workload.SourceTesting)[0]
	m1.Measure(a, env.Catalog[0], sim.Want{})
	if m2.Runs() != 0 {
		t.Fatal("meters share state")
	}
}

func TestSelectionMAPEHelper(t *testing.T) {
	env := NewEnv(1)
	apps := []workload.App{workload.BySet(workload.SourceTesting)[0]}
	truth := env.Truth("one", apps)
	app := apps[0].Name
	bestVM, bestSec, err := truth.BestByTime(app)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect prediction: MAPE 0.
	if got := selectionMAPE(truth, app, bestVM.Name, bestSec); got != 0 {
		t.Fatalf("perfect MAPE = %v", got)
	}
	// 2x overprediction: MAPE 100.
	if got := selectionMAPE(truth, app, bestVM.Name, 2*bestSec); math.Abs(got-100) > 1e-9 {
		t.Fatalf("2x MAPE = %v", got)
	}
	// Inf prediction falls back to the pick's true time.
	worst := env.Catalog[0]
	got := selectionMAPE(truth, app, worst.Name, math.Inf(1))
	wantSec, _ := truth.Time(app, worst.Name)
	if math.Abs(got-math.Abs(wantSec-bestSec)/bestSec*100) > 1e-9 {
		t.Fatalf("inf-fallback MAPE = %v", got)
	}
}

func TestRegretHelper(t *testing.T) {
	env := NewEnv(1)
	apps := []workload.App{workload.BySet(workload.SourceTesting)[1]}
	truth := env.Truth("one2", apps)
	bestVM, _, _ := truth.BestByTime(apps[0].Name)
	if got := regretPct(truth, apps[0].Name, bestVM.Name); got != 0 {
		t.Fatalf("best-pick regret = %v", got)
	}
	for _, vm := range env.Catalog[:5] {
		if regretPct(truth, apps[0].Name, vm.Name) < 0 {
			t.Fatal("regret below zero")
		}
	}
}

func TestClosestIndexHelpers(t *testing.T) {
	ratios := []float64{1, 2, 4, 8}
	if closestIndex(ratios, 3.9) != 2 {
		t.Fatal("closestIndex wrong")
	}
	if closestIndex(ratios, 1.1) != 0 {
		t.Fatal("closestIndex wrong at low end")
	}
	cpus := []int{2, 4, 8}
	if closestIndexInt(cpus, 7) != 2 {
		t.Fatal("closestIndexInt wrong")
	}
	if closestIndexInt(cpus, 2) != 0 {
		t.Fatal("closestIndexInt wrong at low end")
	}
}

func TestSortedKeys(t *testing.T) {
	got := sortedKeys(map[string]int{"b": 1, "a": 2, "c": 3})
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("sortedKeys = %v", got)
	}
}

func TestFig9Deterministic(t *testing.T) {
	// Fig9 is the cheapest experiment; use it to verify reproducibility.
	t1 := Fig9PCAImportance(NewEnv(3))
	t2 := Fig9PCAImportance(NewEnv(3))
	if len(t1.Rows) != len(t2.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range t1.Rows {
		for j := range t1.Rows[i] {
			if t1.Rows[i][j] != t2.Rows[i][j] {
				t.Fatalf("cell (%d,%d) differs: %q vs %q", i, j, t1.Rows[i][j], t2.Rows[i][j])
			}
		}
	}
}

func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	tbl := Fig1Heatmaps(NewEnv(1))
	// 3 apps x 5 ratio rows + 3 separators.
	if len(tbl.Rows) != 18 {
		t.Fatalf("fig1 has %d rows, want 18", len(tbl.Rows))
	}
	// Every heat cell is a digit or '.' (skip the single-cell separators).
	for _, row := range tbl.Rows {
		if len(row) < 3 {
			continue
		}
		for _, cell := range row[2:] {
			if cell == "" {
				continue
			}
			if cell != "." && (cell < "0" || cell > "9") {
				t.Fatalf("bad heat cell %q", cell)
			}
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"n1"},
	}
	tbl.AddRow("v", 1.5)
	tbl.AddRow("only-one-cell")
	out := tbl.RenderMarkdown()
	for _, want := range []string{"### x — demo", "| a | b |", "| --- | --- |", "| v | 1.5 |", "> n1", "| only-one-cell |  |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}
