// Package workload defines the 30 big data applications of the paper's
// Table 3 (BigDataBench + HiBench workloads on Hadoop, Hive and Spark) as
// demand profiles consumed by the cluster simulator.
//
// The central modeling decision: an application is a *kernel* (terasort, lr,
// kmeans, pagerank, ...) executed by a *framework* (Hadoop, Hive, Spark).
// The kernel carries the workload-intrinsic resource demand — compute per GB,
// working-set size, shuffle volume, iteration structure — while the framework
// determines how that demand turns into machine behaviour (disk-materialized
// supersteps for Hadoop/Hive, in-memory DAG stages for Spark). This is
// exactly the paper's "correlation similarity" observation: low-level metric
// levels differ per framework, but the correlation structure is intrinsic to
// the kernel and therefore transfers.
package workload

import (
	"fmt"
	"sort"
)

// Framework identifies one of the three data processing frameworks.
type Framework string

// The frameworks of the evaluation.
const (
	Hadoop Framework = "Hadoop"
	Hive   Framework = "Hive"
	Spark  Framework = "Spark"
)

// Class is the benchmark use-case group from Section 3.1.
type Class string

// Workload classes from the paper's large-scale evaluation.
const (
	Micro           Class = "micro"
	MachineLearning Class = "machine-learning"
	SQL             Class = "sql"
	SearchEngine    Class = "search-engine"
	Streaming       Class = "streaming"
)

// Set is the dataset split of Table 3.
type Set string

// Table 3 splits: 13 source-training, 5 source-testing, 12 target workloads.
const (
	SourceTraining Set = "source-training"
	SourceTesting  Set = "source-testing"
	Target         Set = "target"
)

// Suite names the benchmark suite an application comes from.
type Suite string

// Benchmark suites used by the paper.
const (
	HiBench      Suite = "HiBench"
	BigDataBench Suite = "BigDataBench"
)

// Demand is the framework-independent resource demand of a kernel,
// normalized per GB of input data where applicable.
type Demand struct {
	// ComputePerGB is CPU work in baseline core-seconds per GB of input.
	ComputePerGB float64
	// MemPerGB is the working-set size in GiB per GB of input.
	MemPerGB float64
	// ShufflePerGB is the fraction of the input exchanged between nodes per
	// superstep (sort: ~1.0 full shuffle; grep: ~0.02).
	ShufflePerGB float64
	// OutputPerGB is the output volume written per GB of input.
	OutputPerGB float64
	// Iterations is the number of BSP supersteps (ML/graph kernels iterate).
	Iterations int
	// CacheReuse in [0,1] is how much of the input is re-read every
	// iteration — the fraction an in-memory framework can cache.
	CacheReuse float64
	// SyncIntensity in [0,1] weights barrier/synchronization cost.
	SyncIntensity float64
	// Skew in [0,1] models data skew (straggler tasks lengthen supersteps).
	Skew float64
	// RunVariance is the relative run-to-run noise sigma (cloud jitter);
	// Spark-svd++ is documented in the paper at close to 40%.
	RunVariance float64
	// Streaming marks arrival-driven workloads (twitter, page-review) whose
	// bottleneck is network ingest rather than batch scans.
	Streaming bool
}

// App is one of the 30 applications in Table 3.
type App struct {
	Name      string // e.g. "Spark-page-rank", exactly as printed in Table 3
	No        int    // row number in Table 3 (1..30)
	Framework Framework
	Kernel    string // shared kernel id, e.g. "lr"
	Class     Class
	Suite     Suite
	Set       Set
	// InputGB is the default input size, following the benchmark-suite
	// conventions ("large" 0.3 GB, "huge" 3 GB, "gigantic" 30 GB) scaled so
	// jobs run in a reasonable simulated time (Section 5.1).
	InputGB float64
	Demand  Demand
	// Converges is false for the one workload (Spark-CF) whose online SGD
	// does not converge against the offline knowledge (Section 5.3).
	Converges bool
}

// kernels maps kernel id to its intrinsic demand. Values are synthetic but
// ordered to match the qualitative characterizations in the HiBench and
// BigDataBench papers (CPU-bound ML, shuffle-bound sorts, scan-bound SQL,
// network-bound streaming).
var kernels = map[string]Demand{
	// Micro benchmarks.
	"terasort":  {ComputePerGB: 55, MemPerGB: 1.1, ShufflePerGB: 1.0, OutputPerGB: 1.0, Iterations: 1, CacheReuse: 0, SyncIntensity: 0.5, Skew: 0.10, RunVariance: 0.06},
	"sort":      {ComputePerGB: 50, MemPerGB: 1.0, ShufflePerGB: 1.0, OutputPerGB: 1.0, Iterations: 1, CacheReuse: 0, SyncIntensity: 0.5, Skew: 0.10, RunVariance: 0.06},
	"wordcount": {ComputePerGB: 95, MemPerGB: 0.35, ShufflePerGB: 0.12, OutputPerGB: 0.05, Iterations: 1, CacheReuse: 0, SyncIntensity: 0.2, Skew: 0.15, RunVariance: 0.05},
	"grep":      {ComputePerGB: 40, MemPerGB: 0.15, ShufflePerGB: 0.02, OutputPerGB: 0.01, Iterations: 1, CacheReuse: 0, SyncIntensity: 0.1, Skew: 0.05, RunVariance: 0.05},
	"count":     {ComputePerGB: 45, MemPerGB: 0.20, ShufflePerGB: 0.03, OutputPerGB: 0.005, Iterations: 1, CacheReuse: 0, SyncIntensity: 0.1, Skew: 0.05, RunVariance: 0.05},
	"identify":  {ComputePerGB: 70, MemPerGB: 0.30, ShufflePerGB: 0.08, OutputPerGB: 0.05, Iterations: 1, CacheReuse: 0, SyncIntensity: 0.2, Skew: 0.10, RunVariance: 0.06},

	// Machine learning.
	"linear":   {ComputePerGB: 320, MemPerGB: 1.4, ShufflePerGB: 0.06, OutputPerGB: 0.01, Iterations: 8, CacheReuse: 0.9, SyncIntensity: 0.5, Skew: 0.05, RunVariance: 0.07},
	"lr":       {ComputePerGB: 420, MemPerGB: 1.6, ShufflePerGB: 0.07, OutputPerGB: 0.01, Iterations: 12, CacheReuse: 0.9, SyncIntensity: 0.55, Skew: 0.05, RunVariance: 0.07},
	"kmeans":   {ComputePerGB: 360, MemPerGB: 1.8, ShufflePerGB: 0.10, OutputPerGB: 0.02, Iterations: 15, CacheReuse: 0.95, SyncIntensity: 0.6, Skew: 0.10, RunVariance: 0.08},
	"bayes":    {ComputePerGB: 250, MemPerGB: 1.2, ShufflePerGB: 0.20, OutputPerGB: 0.03, Iterations: 3, CacheReuse: 0.6, SyncIntensity: 0.4, Skew: 0.12, RunVariance: 0.07},
	"pca":      {ComputePerGB: 520, MemPerGB: 2.6, ShufflePerGB: 0.15, OutputPerGB: 0.02, Iterations: 10, CacheReuse: 0.85, SyncIntensity: 0.6, Skew: 0.05, RunVariance: 0.08},
	"als":      {ComputePerGB: 460, MemPerGB: 2.2, ShufflePerGB: 0.35, OutputPerGB: 0.03, Iterations: 18, CacheReuse: 0.8, SyncIntensity: 0.7, Skew: 0.15, RunVariance: 0.10},
	"svdpp":    {ComputePerGB: 500, MemPerGB: 2.4, ShufflePerGB: 0.70, OutputPerGB: 0.03, Iterations: 20, CacheReuse: 0.6, SyncIntensity: 0.7, Skew: 0.35, RunVariance: 0.38},
	"cf":       {ComputePerGB: 300, MemPerGB: 2.0, ShufflePerGB: 0.95, OutputPerGB: 0.04, Iterations: 22, CacheReuse: 0.5, SyncIntensity: 0.85, Skew: 0.28, RunVariance: 0.18},
	"spearman": {ComputePerGB: 300, MemPerGB: 1.5, ShufflePerGB: 0.30, OutputPerGB: 0.01, Iterations: 4, CacheReuse: 0.7, SyncIntensity: 0.5, Skew: 0.08, RunVariance: 0.07},
	"bfs":      {ComputePerGB: 180, MemPerGB: 1.9, ShufflePerGB: 0.30, OutputPerGB: 0.02, Iterations: 12, CacheReuse: 0.85, SyncIntensity: 0.7, Skew: 0.20, RunVariance: 0.09},

	// SQL-like processing.
	"select":      {ComputePerGB: 30, MemPerGB: 0.25, ShufflePerGB: 0.02, OutputPerGB: 0.10, Iterations: 1, CacheReuse: 0, SyncIntensity: 0.1, Skew: 0.05, RunVariance: 0.05},
	"scan":        {ComputePerGB: 35, MemPerGB: 0.20, ShufflePerGB: 0.01, OutputPerGB: 0.30, Iterations: 1, CacheReuse: 0, SyncIntensity: 0.1, Skew: 0.05, RunVariance: 0.05},
	"join":        {ComputePerGB: 130, MemPerGB: 2.1, ShufflePerGB: 0.90, OutputPerGB: 0.40, Iterations: 2, CacheReuse: 0.3, SyncIntensity: 0.5, Skew: 0.20, RunVariance: 0.08},
	"fulljoin":    {ComputePerGB: 190, MemPerGB: 2.6, ShufflePerGB: 1.20, OutputPerGB: 0.60, Iterations: 3, CacheReuse: 0.3, SyncIntensity: 0.6, Skew: 0.25, RunVariance: 0.09},
	"aggregation": {ComputePerGB: 90, MemPerGB: 0.9, ShufflePerGB: 0.25, OutputPerGB: 0.05, Iterations: 1, CacheReuse: 0.1, SyncIntensity: 0.3, Skew: 0.12, RunVariance: 0.06},

	// Search engine.
	"pagerank": {ComputePerGB: 260, MemPerGB: 1.7, ShufflePerGB: 0.35, OutputPerGB: 0.02, Iterations: 20, CacheReuse: 0.9, SyncIntensity: 0.65, Skew: 0.15, RunVariance: 0.08},
	"index":    {ComputePerGB: 150, MemPerGB: 0.8, ShufflePerGB: 0.50, OutputPerGB: 0.70, Iterations: 2, CacheReuse: 0.2, SyncIntensity: 0.4, Skew: 0.15, RunVariance: 0.07},
	"nutch":    {ComputePerGB: 170, MemPerGB: 0.9, ShufflePerGB: 0.55, OutputPerGB: 0.60, Iterations: 3, CacheReuse: 0.25, SyncIntensity: 0.45, Skew: 0.15, RunVariance: 0.08},

	// Streaming.
	"twitter":    {ComputePerGB: 110, MemPerGB: 0.6, ShufflePerGB: 0.15, OutputPerGB: 0.05, Iterations: 6, CacheReuse: 0.4, SyncIntensity: 0.3, Skew: 0.10, RunVariance: 0.09, Streaming: true},
	"pagereview": {ComputePerGB: 90, MemPerGB: 0.5, ShufflePerGB: 0.12, OutputPerGB: 0.05, Iterations: 6, CacheReuse: 0.4, SyncIntensity: 0.3, Skew: 0.10, RunVariance: 0.08, Streaming: true},
}

// appRow is the compact Table 3 declaration expanded by All.
type appRow struct {
	no      int
	name    string
	fw      Framework
	kernel  string
	class   Class
	suite   Suite
	set     Set
	inputGB float64
}

// rows reproduces Table 3 exactly: numbers, names (including the paper's
// italic-vs-normal font split between HiBench and BigDataBench), and the
// training/testing/target partition.
var rows = []appRow{
	{1, "Hadoop-terasort", Hadoop, "terasort", Micro, HiBench, SourceTraining, 30},
	{2, "Hadoop-wordcount", Hadoop, "wordcount", Micro, HiBench, SourceTraining, 30},
	{3, "Hadoop-page-review", Hadoop, "pagereview", Streaming, BigDataBench, SourceTraining, 10},
	{4, "Hadoop-linear", Hadoop, "linear", MachineLearning, BigDataBench, SourceTraining, 8},
	{5, "Hadoop-lr", Hadoop, "lr", MachineLearning, HiBench, SourceTraining, 8},
	{6, "Hadoop-twitter", Hadoop, "twitter", Streaming, BigDataBench, SourceTraining, 10},
	{7, "Hadoop-bayes", Hadoop, "bayes", MachineLearning, HiBench, SourceTraining, 10},
	{8, "Hadoop-index", Hadoop, "index", SearchEngine, BigDataBench, SourceTraining, 12},
	{9, "Hadoop-identify", Hadoop, "identify", Micro, BigDataBench, SourceTraining, 20},
	{10, "Hive-select", Hive, "select", SQL, BigDataBench, SourceTraining, 30},
	{11, "Hive-join", Hive, "join", SQL, BigDataBench, SourceTraining, 15},
	{12, "Hive-scan", Hive, "scan", SQL, BigDataBench, SourceTraining, 30},
	{13, "Hive-full-join", Hive, "fulljoin", SQL, BigDataBench, SourceTraining, 12},
	{14, "Hadoop-nutch", Hadoop, "nutch", SearchEngine, HiBench, SourceTesting, 12},
	{15, "Hadoop-pca", Hadoop, "pca", MachineLearning, BigDataBench, SourceTesting, 6},
	{16, "Hadoop-als", Hadoop, "als", MachineLearning, HiBench, SourceTesting, 6},
	{17, "Hadoop-kmeans", Hadoop, "kmeans", MachineLearning, HiBench, SourceTesting, 8},
	{18, "Hive-aggregation", Hive, "aggregation", SQL, HiBench, SourceTesting, 20},
	{19, "Spark-spearman", Spark, "spearman", MachineLearning, BigDataBench, Target, 8},
	{20, "Spark-svd++", Spark, "svdpp", MachineLearning, BigDataBench, Target, 6},
	{21, "Spark-lr", Spark, "lr", MachineLearning, HiBench, Target, 8},
	{22, "Spark-page-rank", Spark, "pagerank", SearchEngine, HiBench, Target, 10},
	{23, "Spark-kmeans", Spark, "kmeans", MachineLearning, HiBench, Target, 8},
	{24, "Spark-bayes", Spark, "bayes", MachineLearning, HiBench, Target, 10},
	{25, "Spark-BFS", Spark, "bfs", MachineLearning, BigDataBench, Target, 8},
	{26, "Spark-CF", Spark, "cf", MachineLearning, BigDataBench, Target, 8},
	{27, "Spark-sort", Spark, "sort", Micro, HiBench, Target, 30},
	{28, "Spark-pca", Spark, "pca", MachineLearning, BigDataBench, Target, 6},
	{29, "Spark-grep", Spark, "grep", Micro, BigDataBench, Target, 30},
	{30, "Spark-count", Spark, "count", Micro, BigDataBench, Target, 30},
}

// table is Table 3 as Apps in row order, built once. All hands out a copy,
// so no caller shares the backing array, and ByName returns a row by value.
var table = buildTable()

func buildTable() []App {
	apps := make([]App, 0, len(rows))
	for _, r := range rows {
		d, ok := kernels[r.kernel]
		if !ok {
			panic("workload: unknown kernel " + r.kernel)
		}
		apps = append(apps, App{
			Name: r.name, No: r.no, Framework: r.fw, Kernel: r.kernel,
			Class: r.class, Suite: r.suite, Set: r.set, InputGB: r.inputGB,
			Demand:    d,
			Converges: r.name != "Spark-CF",
		})
	}
	return apps
}

// All returns the 30 applications of Table 3 in row order, as a fresh
// slice the caller may modify.
func All() []App { return append([]App(nil), table...) }

// BySet returns the applications in the given Table 3 split, in row order.
func BySet(s Set) []App {
	var out []App
	for _, a := range table {
		if a.Set == s {
			out = append(out, a)
		}
	}
	return out
}

// SourceSet returns the 18 Hadoop+Hive source applications (training and
// testing splits combined).
func SourceSet() []App {
	return append(BySet(SourceTraining), BySet(SourceTesting)...)
}

// TargetSet returns the 12 Spark target applications.
func TargetSet() []App { return BySet(Target) }

// ByName returns the application with the given Table 3 name.
func ByName(name string) (App, error) {
	for i := range table {
		if table[i].Name == name {
			return table[i], nil
		}
	}
	return App{}, fmt.Errorf("workload: no application named %q in Table 3", name)
}

// ByFramework returns all applications of one framework, in row order.
func ByFramework(f Framework) []App {
	var out []App
	for _, a := range table {
		if a.Framework == f {
			out = append(out, a)
		}
	}
	return out
}

// Kernels returns the sorted list of distinct kernel ids.
func Kernels() []string {
	var out []string
	for k := range kernels {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// KernelDemand returns the intrinsic demand of a kernel id.
func KernelDemand(kernel string) (Demand, error) {
	d, ok := kernels[kernel]
	if !ok {
		return Demand{}, fmt.Errorf("workload: unknown kernel %q", kernel)
	}
	return d, nil
}

// InputSizeGB translates the HiBench dataset-scale names used in Section 5.1
// ("large" 300 MB, "huge" 3 GB, "gigantic" 30 GB) into GB.
func InputSizeGB(scale string) (float64, error) {
	switch scale {
	case "large":
		return 0.3, nil
	case "huge":
		return 3, nil
	case "gigantic":
		return 30, nil
	}
	return 0, fmt.Errorf("workload: unknown HiBench scale %q (want large|huge|gigantic)", scale)
}

// WithInput returns a copy of the application with a different input size.
func (a App) WithInput(gb float64) App {
	if gb <= 0 {
		panic("workload: non-positive input size")
	}
	a.InputGB = gb
	return a
}

// String implements fmt.Stringer.
func (a App) String() string {
	return fmt.Sprintf("%s [%s/%s, %s, %.1f GB]", a.Name, a.Class, a.Kernel, a.Set, a.InputGB)
}
