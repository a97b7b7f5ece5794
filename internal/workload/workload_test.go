package workload

import "testing"

func TestTable3Counts(t *testing.T) {
	all := All()
	if len(all) != 30 {
		t.Fatalf("Table 3 has %d rows, want 30", len(all))
	}
	if n := len(BySet(SourceTraining)); n != 13 {
		t.Fatalf("source training set has %d apps, want 13", n)
	}
	if n := len(BySet(SourceTesting)); n != 5 {
		t.Fatalf("source testing set has %d apps, want 5", n)
	}
	if n := len(TargetSet()); n != 12 {
		t.Fatalf("target set has %d apps, want 12", n)
	}
	if n := len(SourceSet()); n != 18 {
		t.Fatalf("source set has %d apps, want 18", n)
	}
}

func TestRowNumbersSequential(t *testing.T) {
	for i, a := range All() {
		if a.No != i+1 {
			t.Fatalf("row %d has No=%d", i, a.No)
		}
	}
}

func TestSourceIsHadoopHiveTargetIsSpark(t *testing.T) {
	for _, a := range SourceSet() {
		if a.Framework != Hadoop && a.Framework != Hive {
			t.Fatalf("source app %s has framework %s", a.Name, a.Framework)
		}
	}
	for _, a := range TargetSet() {
		if a.Framework != Spark {
			t.Fatalf("target app %s has framework %s", a.Name, a.Framework)
		}
	}
}

func TestCrossFrameworkKernelSharing(t *testing.T) {
	// The transfer story requires target kernels to overlap source kernels.
	sourceKernels := map[string]bool{}
	for _, a := range SourceSet() {
		sourceKernels[a.Kernel] = true
	}
	shared := 0
	for _, a := range TargetSet() {
		if sourceKernels[a.Kernel] {
			shared++
		}
	}
	if shared < 4 {
		t.Fatalf("only %d target kernels shared with sources; transfer needs overlap", shared)
	}
	// And specifically the paper's paired examples.
	for _, pair := range [][2]string{
		{"Hadoop-lr", "Spark-lr"},
		{"Hadoop-kmeans", "Spark-kmeans"},
		{"Hadoop-pca", "Spark-pca"},
		{"Hadoop-bayes", "Spark-bayes"},
	} {
		a, err := ByName(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := ByName(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if a.Kernel != b.Kernel {
			t.Fatalf("%s and %s do not share a kernel", pair[0], pair[1])
		}
	}
}

func TestUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if seen[a.Name] {
			t.Fatalf("duplicate app name %s", a.Name)
		}
		seen[a.Name] = true
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("Flink-wordcount"); err == nil {
		t.Fatal("unknown app should error")
	}
	a, err := ByName("Spark-page-rank")
	if err != nil || a.Kernel != "pagerank" {
		t.Fatalf("ByName(Spark-page-rank) = %+v, %v", a, err)
	}
}

// TestByNameTable: every row round-trips through ByName, the unknown-name
// error keeps its wording, a lookup allocates nothing, and All hands out a
// copy that callers cannot use to corrupt the table.
func TestByNameTable(t *testing.T) {
	for _, a := range All() {
		got, err := ByName(a.Name)
		if err != nil || got != a {
			t.Fatalf("ByName(%q) = %+v, %v; want %+v", a.Name, got, err, a)
		}
	}
	_, err := ByName("Flink-wordcount")
	if want := `workload: no application named "Flink-wordcount" in Table 3`; err == nil || err.Error() != want {
		t.Fatalf("unknown-name error = %v, want %q", err, want)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ByName("Spark-lr"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ByName allocates %v times per call, want 0", n)
	}
	all := All()
	all[0].Name = "mutated"
	if All()[0].Name == "mutated" {
		t.Fatal("All returned a slice sharing the table")
	}
}

func TestDemandSanity(t *testing.T) {
	for _, a := range All() {
		d := a.Demand
		if d.ComputePerGB <= 0 || d.MemPerGB <= 0 || d.Iterations < 1 {
			t.Fatalf("%s has degenerate demand %+v", a.Name, d)
		}
		if d.CacheReuse < 0 || d.CacheReuse > 1 || d.Skew < 0 || d.Skew > 1 {
			t.Fatalf("%s has out-of-range fractions %+v", a.Name, d)
		}
		if a.InputGB <= 0 {
			t.Fatalf("%s has non-positive input", a.Name)
		}
	}
}

func TestDesignedOutliers(t *testing.T) {
	svd, _ := ByName("Spark-svd++")
	if svd.Demand.RunVariance < 0.3 {
		t.Fatalf("Spark-svd++ run variance %v; the paper reports close to 40%%", svd.Demand.RunVariance)
	}
	cf, _ := ByName("Spark-CF")
	if cf.Converges {
		t.Fatal("Spark-CF should be flagged non-convergent (Section 5.3)")
	}
	lr, _ := ByName("Spark-lr")
	if !lr.Converges {
		t.Fatal("Spark-lr should converge")
	}
}

func TestMLKernelsAreComputeHeavy(t *testing.T) {
	sortD, _ := KernelDemand("sort")
	for _, k := range []string{"lr", "kmeans", "pca", "als"} {
		d, err := KernelDemand(k)
		if err != nil {
			t.Fatal(err)
		}
		if d.ComputePerGB <= 2*sortD.ComputePerGB {
			t.Fatalf("ML kernel %s compute %v not clearly above sort %v", k, d.ComputePerGB, sortD.ComputePerGB)
		}
		if d.Iterations < 5 {
			t.Fatalf("ML kernel %s iterates only %d times", k, d.Iterations)
		}
	}
}

func TestSortKernelsShuffleHeavy(t *testing.T) {
	for _, k := range []string{"terasort", "sort"} {
		d, _ := KernelDemand(k)
		if d.ShufflePerGB < 0.9 {
			t.Fatalf("%s shuffle %v, want full-shuffle (~1.0)", k, d.ShufflePerGB)
		}
	}
}

func TestStreamingFlag(t *testing.T) {
	tw, _ := ByName("Hadoop-twitter")
	if !tw.Demand.Streaming {
		t.Fatal("twitter should be streaming")
	}
	ts, _ := ByName("Hadoop-terasort")
	if ts.Demand.Streaming {
		t.Fatal("terasort should not be streaming")
	}
}

func TestInputSizeGB(t *testing.T) {
	for scale, want := range map[string]float64{"large": 0.3, "huge": 3, "gigantic": 30} {
		got, err := InputSizeGB(scale)
		if err != nil || got != want {
			t.Fatalf("InputSizeGB(%s) = %v, %v", scale, got, err)
		}
	}
	if _, err := InputSizeGB("colossal"); err == nil {
		t.Fatal("unknown scale should error")
	}
}

func TestWithInput(t *testing.T) {
	a, _ := ByName("Spark-lr")
	b := a.WithInput(42)
	if b.InputGB != 42 || a.InputGB == 42 {
		t.Fatal("WithInput should copy, not mutate")
	}
}

func TestWithInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithInput(0) did not panic")
		}
	}()
	a, _ := ByName("Spark-lr")
	a.WithInput(0)
}

func TestKernelsListed(t *testing.T) {
	ks := Kernels()
	if len(ks) != 26 {
		t.Fatalf("have %d kernels, want 26", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatal("Kernels not sorted")
		}
	}
}

func TestByFramework(t *testing.T) {
	if n := len(ByFramework(Spark)); n != 12 {
		t.Fatalf("Spark apps = %d, want 12", n)
	}
	if n := len(ByFramework(Hive)); n != 5 {
		t.Fatalf("Hive apps = %d, want 5", n)
	}
	if n := len(ByFramework(Hadoop)); n != 13 {
		t.Fatalf("Hadoop apps = %d, want 13", n)
	}
}
