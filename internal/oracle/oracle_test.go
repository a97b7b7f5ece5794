package oracle

import (
	"testing"

	"vesta/internal/cloud"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

func smallTable(t *testing.T) *Table {
	t.Helper()
	s := sim.New(sim.Config{Repeats: 3})
	apps := []workload.App{}
	for _, n := range []string{"Spark-lr", "Hadoop-terasort", "Hive-select"} {
		a, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	cat := cloud.Catalog120()[:12]
	return Build(s, apps, cat, 42)
}

func TestBuildCoversGrid(t *testing.T) {
	tbl := smallTable(t)
	if len(tbl.Apps()) != 3 || len(tbl.VMs()) != 12 {
		t.Fatalf("table is %dx%d", len(tbl.Apps()), len(tbl.VMs()))
	}
	for _, a := range tbl.Apps() {
		for _, v := range tbl.VMs() {
			sec, err := tbl.Time(a.Name, v.Name)
			if err != nil || sec <= 0 {
				t.Fatalf("Time(%s, %s) = %v, %v", a.Name, v.Name, sec, err)
			}
			cost, err := tbl.Cost(a.Name, v.Name)
			if err != nil || cost <= 0 {
				t.Fatalf("Cost(%s, %s) = %v, %v", a.Name, v.Name, cost, err)
			}
		}
	}
}

func TestBestIsMinimum(t *testing.T) {
	tbl := smallTable(t)
	for _, a := range tbl.Apps() {
		bestVM, bestSec, err := tbl.BestByTime(a.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range tbl.VMs() {
			sec, _ := tbl.Time(a.Name, v.Name)
			if sec < bestSec {
				t.Fatalf("%s: %s (%v s) beats reported best %s (%v s)",
					a.Name, v.Name, sec, bestVM.Name, bestSec)
			}
		}
		bestCostVM, bestCost, err := tbl.BestByCost(a.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range tbl.VMs() {
			c, _ := tbl.Cost(a.Name, v.Name)
			if c < bestCost {
				t.Fatalf("%s: %s ($%v) beats reported best %s ($%v)",
					a.Name, v.Name, c, bestCostVM.Name, bestCost)
			}
		}
	}
}

func TestUnknownLookups(t *testing.T) {
	tbl := smallTable(t)
	if _, err := tbl.Time("nope", "m5.large"); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, _, err := tbl.BestByTime("nope"); err == nil {
		t.Fatal("unknown best accepted")
	}
	if _, err := tbl.TimesFor("nope"); err == nil {
		t.Fatal("unknown TimesFor accepted")
	}
}

func TestTimesForOrder(t *testing.T) {
	tbl := smallTable(t)
	times, err := tbl.TimesFor("Spark-lr")
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(tbl.VMs()) {
		t.Fatalf("TimesFor length %d", len(times))
	}
	for i, v := range tbl.VMs() {
		want, _ := tbl.Time("Spark-lr", v.Name)
		if times[i] != want {
			t.Fatal("TimesFor not in catalog order")
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	t1 := smallTable(t)
	t2 := smallTable(t)
	for _, a := range t1.Apps() {
		for _, v := range t1.VMs() {
			x, _ := t1.Time(a.Name, v.Name)
			y, _ := t2.Time(a.Name, v.Name)
			if x != y {
				t.Fatalf("non-deterministic table at (%s, %s)", a.Name, v.Name)
			}
		}
	}
}

func TestMeterCounting(t *testing.T) {
	s := sim.New(sim.Config{Repeats: 2})
	m := NewMeter(s, 7)
	a, _ := workload.ByName("Spark-lr")
	vm := cloud.Catalog120()[30]
	if m.Runs() != 0 {
		t.Fatal("fresh meter not at zero")
	}
	p := m.Measure(a, vm, sim.Want{})
	if p.P90Seconds <= 0 {
		t.Fatal("meter profile returned bad result")
	}
	m.Measure(a, vm, sim.Want{})
	if m.Runs() != 2 {
		t.Fatalf("Runs = %d, want 2", m.Runs())
	}
	log := m.Log()
	if len(log) != 2 || log[0].App != "Spark-lr" {
		t.Fatalf("log = %v", log)
	}
	m.Reset()
	if m.Runs() != 0 || len(m.Log()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestMeterMatchesDirectSim(t *testing.T) {
	s := sim.New(sim.Config{Repeats: 2})
	m := NewMeter(s, 7)
	a, _ := workload.ByName("Spark-lr")
	vm := cloud.Catalog120()[30]
	got := m.Measure(a, vm, sim.Want{}).P90Seconds
	want := s.Measure(a, vm, 7, sim.Want{}).P90Seconds
	if got != want {
		t.Fatalf("meter time %v != direct sim %v", got, want)
	}
}
