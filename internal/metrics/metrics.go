// Package metrics defines the low-level metrics Vesta's Data Collector
// gathers during a workload run, and derives from them the high-level
// "correlation similarity" features of the paper's Table 1.
//
// The paper collects 20 low-level metrics. We reproduce the inventory as 17
// sampled time series (resource utilizations plus per-step task activity,
// sampled every 5 seconds like the paper's collector) and 3 scalar execution
// ratios:
//
//	CPU      : user, system, idle, iowait rates        (4 series)
//	memory   : RAM, buffer, cache usage, swap rate     (4 series)
//	disk     : read rate, write rate, utilization      (3 series)
//	network  : send, receive, drop rates               (3 series)
//	steps    : tasks active in computation /
//	           communication / synchronization steps   (3 series)
//	ratios   : data-to-cycles, data-to-iterations,
//	           data-to-parallelism                     (3 scalars)
package metrics

import (
	"fmt"
	"math"

	"vesta/internal/stats"
)

// SeriesID identifies one sampled low-level metric time series.
type SeriesID int

// The 17 sampled series.
const (
	CPUUser SeriesID = iota
	CPUSystem
	CPUIdle
	CPUIOWait
	RAMUsed
	BufferUsed
	CacheUsed
	SwapRate
	DiskRead
	DiskWrite
	DiskUtil
	NetSend
	NetRecv
	NetDrop
	TasksComputeStep
	TasksCommStep
	TasksSyncStep
	NumSeries // sentinel
)

// seriesNames is indexed by SeriesID.
var seriesNames = [NumSeries]string{
	"cpu.user", "cpu.system", "cpu.idle", "cpu.iowait",
	"mem.ram", "mem.buffer", "mem.cache", "mem.swap",
	"disk.read", "disk.write", "disk.util",
	"net.send", "net.recv", "net.drop",
	"tasks.compute", "tasks.comm", "tasks.sync",
}

// String returns the collector name of the series.
func (s SeriesID) String() string {
	if s < 0 || s >= NumSeries {
		return fmt.Sprintf("series(%d)", int(s))
	}
	return seriesNames[s]
}

// SeriesSet is a set of sampled series, one bit per SeriesID.
type SeriesSet uint32

// AllSeries holds every sampled series.
const AllSeries SeriesSet = 1<<NumSeries - 1

// Has reports whether id is in the set.
func (s SeriesSet) Has(id SeriesID) bool { return s&(1<<id) != 0 }

// Trace is the sampled record of one workload run, as stored by the paper's
// Data Collector (5-second average resource utilizations).
type Trace struct {
	SampleSec float64
	Series    [NumSeries][]float64
	// Partial marks a trace cut short because the run was killed mid-flight
	// (spot preemption, OOM); its samples are genuine but do not cover the
	// whole execution.
	Partial bool
	// Dropped counts samples lost to metric-collector dropout. A dropped
	// sample is present in every series as NaN (the collector missed the
	// whole tick, not individual metrics).
	Dropped int
}

// Len returns the number of samples in the trace: the length of its first
// present series (a trace sampled for CorrelationsOf(feats) alone leaves the
// series outside SeriesOf(feats) nil).
func (t *Trace) Len() int {
	for _, s := range t.Series {
		if s != nil {
			return len(s)
		}
	}
	return 0
}

// Duration returns the wall-clock span covered by the trace.
func (t *Trace) Duration() float64 { return float64(t.Len()) * t.SampleSec }

// Validate checks internal consistency: equal series lengths, utilization
// series within [0, 1], and at least one sample.
func (t *Trace) Validate() error {
	n := t.Len()
	if n == 0 {
		return fmt.Errorf("metrics: empty trace")
	}
	if t.SampleSec <= 0 {
		return fmt.Errorf("metrics: non-positive sample interval %v", t.SampleSec)
	}
	for id := SeriesID(0); id < NumSeries; id++ {
		if len(t.Series[id]) != n {
			return fmt.Errorf("metrics: series %v has %d samples, want %d", id, len(t.Series[id]), n)
		}
		for i, v := range t.Series[id] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metrics: series %v sample %d is %v", id, i, v)
			}
			if v < -1e-9 {
				return fmt.Errorf("metrics: series %v sample %d negative (%v)", id, i, v)
			}
		}
	}
	return nil
}

// ExecStats are the scalar execution metrics of a run: the step task counts
// aggregated over the job plus the three data-size ratios from Section 3.1.
type ExecStats struct {
	TasksCompute float64 // total tasks across computation steps
	TasksComm    float64 // total tasks across communication steps
	TasksSync    float64 // total synchronization barriers entered
	// DataPerCycle is input GB per billion CPU cycles consumed.
	DataPerCycle float64
	// DataPerIteration is input GB per BSP superstep.
	DataPerIteration float64
	// DataPerParallelism is input GB per parallel task slot used.
	DataPerParallelism float64
}

// minCompleteSamples is the minimum number of NaN-free samples required for
// a correlation vector to be computed from a dropout-damaged trace.
const minCompleteSamples = 3

// hasNaNSample reports whether any series contains a NaN sample. Absent
// (nil) series have no samples to check.
func hasNaNSample(t *Trace) bool {
	for id := SeriesID(0); id < NumSeries; id++ {
		for _, v := range t.Series[id] {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}

// completeSamples returns a copy of t containing only the samples that are
// NaN-free across all present series (listwise deletion of collector-dropout
// gaps). Absent (nil) series stay absent in the copy.
func completeSamples(t *Trace) *Trace {
	n := t.Len()
	keep := make([]int, 0, n)
sample:
	for i := 0; i < n; i++ {
		for id := SeriesID(0); id < NumSeries; id++ {
			if t.Series[id] != nil && math.IsNaN(t.Series[id][i]) {
				continue sample
			}
		}
		keep = append(keep, i)
	}
	out := &Trace{SampleSec: t.SampleSec, Partial: t.Partial, Dropped: n - len(keep)}
	for id := SeriesID(0); id < NumSeries; id++ {
		if t.Series[id] == nil {
			continue
		}
		s := make([]float64, len(keep))
		for j, i := range keep {
			s[j] = t.Series[id][i]
		}
		out.Series[id] = s
	}
	return out
}

// sumInto stores the pointwise sum of a and b in dst.
func sumInto(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// stackSamples bounds the traces whose disk and network sums CorrelationsOf
// keeps on the stack; the simulator's traces (at most 513 samples) all fit,
// so correlating one allocates nothing.
const stackSamples = 1024

// Correlation feature indices — the 10 high-level similarities of Table 1.
const (
	CPUToMemory = iota
	MemoryToDisk
	DiskToNetwork
	BufferToCache
	CPUToNetwork
	IterationToParallelism
	DataToComputation
	DataToCycle
	DiskToSync
	NetworkToSync
	NumCorrelations // sentinel
)

// CorrelationNames lists the Table 1 feature names, indexed like CorrVector.
var CorrelationNames = [NumCorrelations]string{
	"CPU-to-memory",
	"memory-to-disk",
	"disk-to-network",
	"buffer-to-cache",
	"CPU-to-network",
	"iteration-to-parallelism",
	"data-to-computation",
	"data-to-cycle",
	"disk-to-synchronization",
	"network-to-synchronization",
}

// CorrVector is the 10-dimensional correlation-similarity feature vector,
// every component normalized to [-1, 1] (Section 3.1).
type CorrVector [NumCorrelations]float64

// Slice returns the vector as a []float64 (a copy).
func (c CorrVector) Slice() []float64 {
	out := make([]float64, NumCorrelations)
	copy(out, c[:])
	return out
}

// Valid reports whether every component is inside [-1, 1].
func (c CorrVector) Valid() bool { return c.ValidOn(AllFeatures) }

// ValidOn reports whether every component in feats is inside [-1, 1]; the
// other components are not looked at.
func (c CorrVector) ValidOn(feats FeatureSet) bool {
	for i, v := range c {
		if feats.Has(i) && (math.IsNaN(v) || v < -1 || v > 1) {
			return false
		}
	}
	return true
}

// String renders the vector with feature names.
func (c CorrVector) String() string {
	s := ""
	for i, v := range c {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%.2f", CorrelationNames[i], v)
	}
	return s
}

// boundedRatio maps the balance between two non-negative quantities onto
// [-1, 1]: +1 when a dominates, -1 when b dominates, 0 when equal or both
// are zero.
func boundedRatio(a, b float64) float64 {
	if a <= 0 && b <= 0 {
		return 0
	}
	return (a - b) / (a + b)
}

// FeatureSet is a set of Table 1 correlation features, one bit per
// CorrVector index.
type FeatureSet uint16

// AllFeatures holds every correlation feature.
const AllFeatures FeatureSet = 1<<NumCorrelations - 1

// Has reports whether feature i is in the set.
func (f FeatureSet) Has(i int) bool { return f&(1<<i) != 0 }

// FeaturesOf returns the set holding the given feature indices, e.g. a
// knowledge base's PCA-kept features. Indices outside the vector are
// ignored.
func FeaturesOf(idx []int) FeatureSet {
	var f FeatureSet
	for _, i := range idx {
		if i >= 0 && i < NumCorrelations {
			f |= 1 << i
		}
	}
	return f
}

// diskSeries and netSeries are summed into the disk and network totals the
// resource correlations pair up.
const (
	diskSeries = 1<<DiskRead | 1<<DiskWrite
	netSeries  = 1<<NetSend | 1<<NetRecv
)

// featureSeries is, per feature, the sampled series its value is computed
// from. The execution correlations are ratios of ExecStats and read none.
var featureSeries = [NumCorrelations]SeriesSet{
	CPUToMemory:   1<<CPUUser | 1<<RAMUsed,
	MemoryToDisk:  1<<RAMUsed | diskSeries,
	DiskToNetwork: diskSeries | netSeries,
	BufferToCache: 1<<BufferUsed | 1<<CacheUsed,
	CPUToNetwork:  1<<CPUUser | netSeries,
	DiskToSync:    diskSeries | 1<<TasksSyncStep,
	NetworkToSync: netSeries | 1<<TasksSyncStep,
}

// SeriesOf returns the sampled series the features in feats are computed
// from: every other series can be perturbed or left absent (nil) without
// changing one bit of those components (TestSeriesOfIsExact), so a
// collector that needs only feats samples these series alone.
func SeriesOf(feats FeatureSet) SeriesSet {
	var s SeriesSet
	for i, ser := range featureSeries {
		if feats.Has(i) {
			s |= ser
		}
	}
	return s
}

// CorrelationSeries is the set of sampled series Correlations reads:
// SeriesOf(AllFeatures), the nine series of Table 1's resource
// correlations.
const CorrelationSeries SeriesSet = 1<<CPUUser | 1<<RAMUsed | 1<<BufferUsed | 1<<CacheUsed |
	diskSeries | netSeries | 1<<TasksSyncStep

// Correlations derives the Table 1 feature vector from a run trace and its
// execution stats: CorrelationsOf every feature.
func Correlations(tr *Trace, ex ExecStats) CorrVector {
	return CorrelationsOf(tr, ex, AllFeatures)
}

// CorrelationsOf derives the features in feats of the Table 1 vector from a
// run trace and its execution stats; every other component is NaN. Resource
// correlations are Pearson coefficients between the relevant sampled
// series; execution correlations are bounded ratios of the scalar execution
// metrics (both normalized to [-1, 1] like the paper's correlation values).
// Each requested component is bit-identical to Correlations'. The values
// come only from the series in SeriesOf(feats); the other present series
// matter only through which samples collector dropout deleted, and a
// dropped sample is NaN in every series alike.
func CorrelationsOf(tr *Trace, ex ExecStats, feats FeatureSet) CorrVector {
	var c CorrVector
	for i := range c {
		c[i] = math.NaN()
	}
	// Collector dropout leaves NaN samples; correlate over the complete
	// samples only (listwise deletion). Fewer than minCompleteSamples
	// survivors means the trace is too corrupt for a meaningful Pearson —
	// return an all-NaN vector so callers can quarantine the run. Clean
	// traces take the fast path untouched.
	if tr.Dropped > 0 || hasNaNSample(tr) {
		tr = completeSamples(tr)
		if tr.Len() < minCompleteSamples {
			return c
		}
	}
	ser := SeriesOf(feats)
	n := tr.Len()
	var buf [2 * stackSamples]float64
	var disk, net []float64
	if n <= stackSamples {
		disk, net = buf[:n], buf[stackSamples:stackSamples+n]
	} else {
		disk, net = make([]float64, n), make([]float64, n)
	}
	if ser&diskSeries != 0 {
		sumInto(disk, tr.Series[DiskRead], tr.Series[DiskWrite])
	}
	if ser&netSeries != 0 {
		sumInto(net, tr.Series[NetSend], tr.Series[NetRecv])
	}

	pearson := func(i int, xs, ys []float64) {
		if feats.Has(i) {
			c[i] = stats.Pearson(xs, ys)
		}
	}
	pearson(CPUToMemory, tr.Series[CPUUser], tr.Series[RAMUsed])
	pearson(MemoryToDisk, tr.Series[RAMUsed], disk)
	pearson(DiskToNetwork, disk, net)
	pearson(BufferToCache, tr.Series[BufferUsed], tr.Series[CacheUsed])
	pearson(CPUToNetwork, tr.Series[CPUUser], net)

	// iteration-to-parallelism: positive = prefers a "thin" cluster (many
	// iterations), negative = prefers a "fat" cluster (wide parallelism).
	if feats.Has(IterationToParallelism) {
		iterations := ex.TasksSync // one barrier per superstep
		parallelism := 0.0
		if ex.DataPerParallelism > 0 {
			parallelism = ex.DataPerIteration / ex.DataPerParallelism // tasks per superstep
		}
		c[IterationToParallelism] = boundedRatio(iterations, parallelism)
	}

	// data-to-computation: positive = many computation phases relative to
	// data movement.
	if feats.Has(DataToComputation) {
		c[DataToComputation] = boundedRatio(ex.TasksCompute, ex.TasksComm)
	}

	// data-to-cycle: positive = data-starved (lots of cycles per byte),
	// negative = scan-dominated. DataPerCycle around 1 GB per billion cycles
	// is the neutral point.
	if feats.Has(DataToCycle) {
		c[DataToCycle] = boundedRatio(1, ex.DataPerCycle)
	}

	pearson(DiskToSync, disk, tr.Series[TasksSyncStep])
	pearson(NetworkToSync, net, tr.Series[TasksSyncStep])
	return c
}

// Distance returns the Euclidean distance between two correlation vectors,
// the measure used in Figure 10's VM-type consistency analysis.
func Distance(a, b CorrVector) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Interval buckets a correlation value into the paper's 0.05-wide intervals
// (Section 5.3, Figure 10), returning the lower bound of the bucket.
func Interval(v float64) float64 {
	return math.Floor(v/0.05) * 0.05
}
