// Package core implements Vesta, the paper's primary contribution: a
// transfer-learning VM-type selector for big data applications across
// frameworks (Sections 3 and 4).
//
// Offline phase (Data Collector + Correlation Analyzer):
//
//  1. Profile every source workload on every VM type through the metered
//     measurement service (Algorithm 1 line 1).
//  2. Derive each workload's Table 1 correlation-similarity vector, prune
//     irrelevant features with PCA (Figure 9), and group workloads into k
//     labels with K-Means (k = 9 after Figure 11's tuning).
//  3. Build the two-layer bipartite graph: workload-label memberships (U)
//     and label-VM affinities (V) aggregated from normalized performance.
//
// Online phase (Online Predictor):
//
//  1. Run the target on a sandbox VM plus 3 randomly picked VM types
//     (Section 4.2) — the only measurements charged to the new framework.
//  2. Place the target in label space via CMF with shared label factors,
//     treating the noisy single-run memberships as sparse observations
//     (Algorithm 1 lines 5-12): the factors are fit once per trained
//     knowledge, and each target row is folded in against them in closed
//     form.
//  3. Walk the bipartite graph to rank VM types, calibrate absolute time
//     predictions with the observed runs, and return the best VM.
//
// A convergence limitation (Section 5.3) guards targets that cannot match
// the offline knowledge — the Spark-CF case — by falling back to the raw
// sandbox memberships.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"vesta/internal/bipartite"
	"vesta/internal/cloud"
	"vesta/internal/cmf"
	"vesta/internal/kmeans"
	"vesta/internal/mat"
	"vesta/internal/metrics"
	"vesta/internal/obs"
	"vesta/internal/oracle"
	"vesta/internal/parallel"
	"vesta/internal/pca"
	"vesta/internal/rng"
	"vesta/internal/sim"
	"vesta/internal/stats"
	"vesta/internal/workload"
)

// ErrSandboxFailed is returned by PredictOnline when the target's sandbox
// initialization run is unrecoverable: without it there is no feature
// vector, no label placement, and no calibration anchor — nothing to
// degrade to. Callers match with errors.Is.
var ErrSandboxFailed = errors.New("vesta: sandbox initialization run failed")

// Config tunes the Vesta system. Zero values take the paper's defaults.
type Config struct {
	// K is the number of K-Means labels; the paper tunes k = 9 (Figure 11).
	K int
	// Lambda is the CMF tradeoff; the paper's best practice is 0.75. Zero is
	// legal (a pure-source ablation) but must be marked with LambdaSet to be
	// distinguishable from the unset zero value. New rejects values outside
	// [0, 1] and NaN.
	Lambda float64
	// LambdaSet marks Lambda as explicitly configured; see cmf.Config.
	LambdaSet bool
	// LatentDim is the CMF latent feature count g. Default 4.
	LatentDim int
	// PCAThreshold is the importance cut (multiple of mean importance) for
	// feature pruning. Default 0.8.
	PCAThreshold float64
	// SandboxVM is the VM type used for the target's initialization run
	// (footnote 3: any type satisfying the workload's resource needs).
	// Default "m5.xlarge".
	SandboxVM string
	// InitRandomVMs is the number of randomly picked VM types profiled to
	// initialize the CMF model. The paper uses 3.
	InitRandomVMs int
	// ObservedLabels is how many of the strongest sandbox memberships are
	// treated as observed entries of the sparse U* row. Default 3.
	ObservedLabels int
	// MatchThreshold is the convergence limitation: a target whose pruned
	// correlation vector is farther than this from every source workload
	// cannot match the offline knowledge and falls back to sandbox-only
	// prediction. Default 0.80 (calibrated so the paper's two outliers,
	// Spark-svd++ and Spark-CF, trip it while the other targets transfer;
	// the margin to the worst-matched regular target is comfortable).
	MatchThreshold float64
	// CMFEpochs bounds the SGD epochs of the plan solve, the one CMF solve
	// per trained knowledge that fits the shared label factors every
	// prediction folds its target into. Default 300.
	CMFEpochs int
	// UseRawFeatures replaces the Table 1 correlation vectors with raw mean
	// metric levels as the workload representation. Exists only for the
	// feature ablation in DESIGN.md — it reproduces the fragile naive-reuse
	// behaviour of Figure 2.
	UseRawFeatures bool
	// Seed drives all of Vesta's randomness.
	Seed uint64
	// Workers bounds the goroutines used by the parallel execution layer
	// (offline collection, K-Means restarts, batch predictions); <= 0 means
	// one per CPU. Results are identical at every worker count.
	Workers int
	// Tracer receives phase spans, degradation events, and the K-Means
	// gauge streams (DESIGN.md §9). Nil (the default) disables tracing at
	// the cost of a pointer check per instrumentation site; the serialized
	// trace is byte-identical at every Workers value for the same Seed.
	Tracer *obs.Tracer
}

func (c *Config) fillDefaults() {
	if c.K <= 0 {
		c.K = 9
	}
	if c.Lambda == 0 && !c.LambdaSet {
		c.Lambda = 0.75
	}
	if c.LatentDim <= 0 {
		c.LatentDim = 4
	}
	if c.PCAThreshold <= 0 {
		c.PCAThreshold = 0.8
	}
	if c.SandboxVM == "" {
		c.SandboxVM = "m5.xlarge"
	}
	if c.InitRandomVMs <= 0 {
		c.InitRandomVMs = 3
	}
	if c.ObservedLabels <= 0 {
		c.ObservedLabels = 3
	}
	if c.MatchThreshold <= 0 {
		c.MatchThreshold = 0.80
	}
	if c.CMFEpochs <= 0 {
		c.CMFEpochs = 300
	}
}

// Knowledge is the abstracted offline knowledge (Section 3.1-3.2).
type Knowledge struct {
	Labels []string
	// Kept are the PCA-selected correlation feature indices.
	Kept []int
	PCA  *pca.Result
	KM   *kmeans.Model
	// Graph is the two-layer bipartite graph with source (blue) edges.
	Graph *bipartite.Graph
	// SourceNames, SourceVecs and SourceMemberships are row-aligned.
	SourceNames       []string
	SourceVecs        [][]float64 // pruned correlation vectors
	SourceMemberships [][]float64 // soft label memberships (U rows)
	// Sigma is the membership kernel bandwidth (the clustering's own
	// dispersion scale).
	Sigma float64
	// BestTimes[app] is the source app's best observed P90 time.
	BestTimes map[string]float64
	// Times[app][vm] are the profiled P90 times.
	Times map[string]map[string]float64
	// OfflineRuns is the reference-VM count charged during training.
	OfflineRuns int
	// SkippedCells counts (source, VM) measurements missing from Times
	// (abandoned by the meter); the affected label-VM affinities aggregate
	// over the surviving sources only.
	SkippedCells int
	// DroppedSources lists sources excluded during collection (no sandbox
	// measurement, hence no feature vector).
	DroppedSources []string
	// InvalidVectors counts sources rejected at training time because their
	// feature vector contained NaN/Inf.
	InvalidVectors int
}

// Prediction is the outcome of the online phase for one target workload.
type Prediction struct {
	Target string
	// Best is the predicted best VM type.
	Best cloud.VMType
	// Ranking lists every VM, best first.
	Ranking []bipartite.VMScore
	// PredictedSec maps VM name to predicted execution time.
	PredictedSec map[string]float64
	// LabelWeights is the (completed) U* row used for the graph walk.
	LabelWeights []float64
	// PrunedVec is the target's PCA-pruned correlation vector — exactly the
	// shape AbsorbTarget (and Snapshot.Absorb) expects, so a completed
	// prediction can join the knowledge graph without re-profiling.
	PrunedVec []float64
	// Converged is false when the fold-in could not place the target or the
	// target could not match the offline knowledge (Spark-CF case).
	Converged bool
	// MatchDistance is the distance to the closest source in label space.
	MatchDistance float64
	// OnlineRuns is the reference-VM count charged for this target.
	OnlineRuns int
	// ObservedSec holds the measurements taken (sandbox + random VMs).
	ObservedSec map[string]float64
	// ObservedLatencyMS holds the P90 streaming latency of the same runs
	// (zero entries for batch workloads). Used by the latency extension.
	ObservedLatencyMS map[string]float64
	// InitFailures counts reference-VM candidates abandoned during the
	// random-pick initialization; each was substituted by the next VM in
	// the permutation (or skipped when the catalog ran out).
	InitFailures int
}

// System is a Vesta instance bound to a VM catalog. The catalog is
// versioned: catVersion 0 is the catalog the system was constructed over,
// and every Snapshot.AbsorbCatalog produces a successor system with the
// updated catalog at catVersion+1. The knowledge graph's VM vocabulary stays
// frozen at training time; trained retains those types (by name) so
// rankings can be projected onto later catalog versions (see adaptRanking).
type System struct {
	cfg        Config
	catalog    []cloud.VMType
	byName     map[string]cloud.VMType
	catVersion uint64
	// trained indexes the construction-time catalog: the resource vectors
	// the graph's VM nodes were embedded with. Never mutated after New;
	// shared (not copied) by every clone in the lineage.
	trained   map[string]cloud.VMType
	knowledge *Knowledge
	// plan is the lazily built predict plan of the current knowledge (see
	// plan.go). Installing knowledge (TrainFromData, LoadKnowledge) gives the
	// system a fresh holder; AbsorbTarget and catalog updates leave the
	// source memberships and the label-VM layer the plan is built from
	// unchanged, so snapshot clones share it.
	plan *planHolder
}

// New creates a Vesta system over the given catalog.
func New(cfg Config, catalog []cloud.VMType) (*System, error) {
	cfg.fillDefaults()
	if !(cfg.Lambda >= 0 && cfg.Lambda <= 1) { // NaN fails both
		return nil, fmt.Errorf("vesta: lambda %v out of [0,1]", cfg.Lambda)
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("vesta: empty catalog")
	}
	byName := cloud.ByName(catalog)
	if _, ok := byName[cfg.SandboxVM]; !ok {
		return nil, fmt.Errorf("vesta: sandbox VM %q not in catalog", cfg.SandboxVM)
	}
	return &System{
		cfg:     cfg,
		catalog: append([]cloud.VMType(nil), catalog...),
		byName:  byName,
		trained: byName,
	}, nil
}

// CatalogVersion returns the catalog version the system currently selects
// against (0 = the construction-time catalog).
func (s *System) CatalogVersion() uint64 { return s.catVersion }

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// Knowledge returns the trained offline knowledge, or nil before training.
func (s *System) Knowledge() *Knowledge { return s.knowledge }

// OfflineData holds the raw measurements of the offline profiling phase,
// decoupled from model building so that experiments (e.g. Figure 11's
// cross-validation) can re-train models on subsets without re-profiling.
type OfflineData struct {
	Sources []workload.App
	// Times[app][vm] is the profiled P90 execution time.
	Times map[string]map[string]float64
	// RawVecs[i] is source i's full 10-dimensional correlation vector.
	RawVecs [][]float64
	// Runs is the reference-VM count charged while collecting, including
	// retried and abandoned campaigns (Figure-8 accounting).
	Runs int
	// SkippedCells counts (source, VM) measurements the meter abandoned;
	// their Times entries are absent and the model trains without them.
	SkippedCells int
	// DroppedSources lists sources excluded entirely because their sandbox
	// measurement — the feature-vector anchor — was unrecoverable.
	DroppedSources []string
}

// Subset returns the offline data restricted to the sources at the given
// indices (for cross-validation folds).
func (d *OfflineData) Subset(idx []int) *OfflineData {
	out := &OfflineData{Times: map[string]map[string]float64{}}
	for _, i := range idx {
		app := d.Sources[i]
		out.Sources = append(out.Sources, app)
		out.Times[app.Name] = d.Times[app.Name]
		out.RawVecs = append(out.RawVecs, d.RawVecs[i])
	}
	return out
}

// CollectOffline performs Algorithm 1 line 1: run every source workload on
// every VM type through the meter and collect the metrics. The correlation
// vectors are taken at the common sandbox VM so that source and target
// vectors are measured under comparable conditions; every run's time feeds
// the label-VM performance layer.
func (s *System) CollectOffline(sources []workload.App, meter oracle.Service) *OfflineData {
	defer s.cfg.Tracer.Start("offline/collect").End()
	startRuns := meter.Runs()
	data := &OfflineData{
		Times: make(map[string]map[string]float64, len(sources)),
	}
	// Each source's profiling sweep is independent (fixed per-(app, VM)
	// seeds), so the collection fans out one worker per source. Results are
	// byte-identical to a sequential sweep; only the meter's log order
	// varies.
	type appResult struct {
		times   map[string]float64
		vec     []float64
		skipped int
	}
	results := parallel.MapObs(s.cfg.Tracer, "offline/collect", s.cfg.Workers, len(sources), func(i int) appResult {
		app := sources[i]
		r := appResult{times: make(map[string]float64, len(s.catalog))}
		sandboxSeen := false
		for _, vm := range s.catalog {
			// Only the sandbox cell's traces place the workload in the
			// graph; every other cell contributes its time alone.
			var t sim.Timing
			var err error
			if vm.Name == s.cfg.SandboxVM {
				sandboxSeen = true
				var p sim.Profile
				if p, err = meter.TryProfile(app, vm); err == nil {
					t, r.vec = p.Timing(), s.featureVector(p)
				}
			} else {
				t, err = meter.TryTime(app, vm)
			}
			if err != nil {
				// Unrecoverable cell: train without it. A failed sandbox
				// cell additionally costs the feature vector, handled below.
				r.skipped++
				continue
			}
			r.times[vm.Name] = t.P90Seconds
		}
		if !sandboxSeen {
			// Sandbox VM not in the profiling catalog: profile it
			// explicitly.
			if p, err := meter.TryProfile(app, s.byName[s.cfg.SandboxVM]); err == nil {
				r.vec = s.featureVector(p)
			} else {
				r.skipped++
			}
		}
		return r
	})
	for i, app := range sources {
		data.SkippedCells += results[i].skipped
		if results[i].vec == nil {
			// No sandbox measurement means no workload representation: the
			// source cannot join the correlation analysis at all.
			data.DroppedSources = append(data.DroppedSources, app.Name)
			s.cfg.Tracer.Event("offline/dropped/"+app.Name, "no sandbox measurement")
			continue
		}
		data.Sources = append(data.Sources, app)
		data.Times[app.Name] = results[i].times
		data.RawVecs = append(data.RawVecs, results[i].vec)
	}
	if s.cfg.Tracer.Enabled() {
		s.cfg.Tracer.Count("core.skipped_cells", int64(data.SkippedCells))
		s.cfg.Tracer.Count("core.dropped_sources", int64(len(data.DroppedSources)))
	}
	data.Runs = meter.Runs() - startRuns
	return data
}

// featureVector extracts the workload representation from a profile: the
// Table 1 correlation-similarity vector by default, or (for the ablation in
// DESIGN.md) the raw mean metric levels when UseRawFeatures is set.
func (s *System) featureVector(p sim.Profile) []float64 {
	if !s.cfg.UseRawFeatures {
		return p.Corr.Slice()
	}
	out := make([]float64, 0, int(metrics.NumSeries))
	for id := metrics.SeriesID(0); id < metrics.NumSeries; id++ {
		sum := 0.0
		for _, v := range p.Trace.Series[id] {
			sum += v
		}
		out = append(out, sum/float64(p.Trace.Len()))
	}
	return out
}

// TrainOffline runs the offline profiling phase on the source workloads
// (Algorithm 1 lines 1, 3-5). All measurements go through the meter.
func (s *System) TrainOffline(sources []workload.App, meter oracle.Service) error {
	if len(sources) < 2 {
		return fmt.Errorf("vesta: need at least 2 source workloads, got %d", len(sources))
	}
	if s.cfg.K > len(sources) {
		return fmt.Errorf("vesta: k=%d exceeds %d source workloads", s.cfg.K, len(sources))
	}
	return s.TrainFromData(s.CollectOffline(sources, meter))
}

// finiteVec reports whether every component is finite (no NaN/Inf). A single
// corrupt trace must not poison PCA loadings or K-Means centroids.
func finiteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TrainFromData builds the offline model (Algorithm 1 lines 3-5) from
// already-collected measurements.
func (s *System) TrainFromData(data *OfflineData) error {
	defer s.cfg.Tracer.Start("offline/train").End()
	sources := data.Sources
	times := data.Times
	rawVecs := data.RawVecs
	// Degradation guard (satellite of the failure model): reject NaN/Inf
	// feature vectors with a counted skip instead of letting one corrupt
	// trace poison the PCA loadings and every centroid downstream.
	invalidVecs := 0
	for i, rv := range rawVecs {
		if !finiteVec(rv) {
			invalidVecs++
			s.cfg.Tracer.Event("offline/invalid-vector/"+data.Sources[i].Name,
				"non-finite feature vector rejected")
			if invalidVecs == 1 {
				// Copy-on-write: don't mutate the caller's OfflineData.
				sources = append([]workload.App(nil), sources[:i]...)
				rawVecs = append([][]float64(nil), rawVecs[:i]...)
			}
			continue
		}
		if invalidVecs > 0 {
			sources = append(sources, data.Sources[i])
			rawVecs = append(rawVecs, rv)
		}
	}
	if invalidVecs > 0 {
		s.cfg.Tracer.Count("core.invalid_vectors", int64(invalidVecs))
	}
	if len(sources) < 2 {
		return fmt.Errorf("vesta: need at least 2 source workloads, got %d", len(sources))
	}
	if s.cfg.K > len(sources) {
		return fmt.Errorf("vesta: k=%d exceeds %d source workloads", s.cfg.K, len(sources))
	}

	// Line 3: correlation analysis + PCA importance pruning.
	pcaSpan := s.cfg.Tracer.Start("offline/pca")
	pcaRes, err := pca.Fit(rawVecs)
	if err != nil {
		return fmt.Errorf("vesta: PCA failed: %w", err)
	}
	kept := pcaRes.SelectFeatures(s.cfg.PCAThreshold)
	if len(kept) == 0 {
		return fmt.Errorf("vesta: PCA pruned every feature")
	}
	sort.Ints(kept)
	pcaSpan.End()
	if s.cfg.Tracer.Enabled() {
		s.cfg.Tracer.Event("offline/pca/kept", fmt.Sprintf("features=%v of %d", kept, len(rawVecs[0])))
	}
	vecs := make([][]float64, len(sources))
	for i, rv := range rawVecs {
		vecs[i] = project(rv, kept)
	}

	// Line 4: group relationships via K-Means.
	kmSpan := s.cfg.Tracer.Start("offline/kmeans")
	km, err := kmeans.Fit(vecs, kmeans.Config{K: s.cfg.K, Restarts: 6, Workers: s.cfg.Workers,
		Tracer: s.cfg.Tracer, TraceKey: "offline/kmeans"},
		rng.New(s.cfg.Seed+101))
	if err != nil {
		return fmt.Errorf("vesta: K-Means failed: %w", err)
	}
	kmSpan.End()

	labels := make([]string, s.cfg.K)
	for j := range labels {
		labels[j] = fmt.Sprintf("label-%d", j)
	}
	vmNames := make([]string, len(s.catalog))
	for i, v := range s.catalog {
		vmNames[i] = v.Name
	}
	graph, err := bipartite.New(labels, vmNames)
	if err != nil {
		return err
	}

	// Membership kernel bandwidth: the clustering's own dispersion plus a
	// floor so exact-centroid hits still spread a little.
	sigma := math.Sqrt(km.Inertia/float64(len(sources))) + 0.05

	// Workload-label layer: soft memberships (the blue edges).
	memberships := make([][]float64, len(sources))
	best := make(map[string]float64, len(sources))
	for i, app := range sources {
		memberships[i] = sharpMemberships(km, vecs[i], sigma)
		if err := graph.AddWorkload(app.Name, bipartite.SourceEdge, memberships[i]); err != nil {
			return err
		}
		b := math.Inf(1)
		for _, sec := range times[app.Name] {
			if sec < b {
				b = sec
			}
		}
		best[app.Name] = b
	}

	// Label-VM layer: membership-weighted normalized performance. Cells the
	// meter abandoned are absent from Times; the affinity aggregates over
	// the sources that were measured on this VM.
	for j := 0; j < s.cfg.K; j++ {
		for _, vm := range s.catalog {
			num, den := 0.0, 0.0
			for i, app := range sources {
				sec, ok := times[app.Name][vm.Name]
				if !ok || sec <= 0 {
					continue
				}
				w := memberships[i][j]
				perf := best[app.Name] / sec // 1.0 = best
				num += w * perf
				den += w
			}
			if den > 0 {
				if err := graph.SetLabelVM(labels[j], vm.Name, num/den); err != nil {
					return err
				}
			}
		}
	}

	names := make([]string, len(sources))
	for i, app := range sources {
		names[i] = app.Name
	}
	s.setKnowledge(&Knowledge{
		Labels: labels, Kept: kept, PCA: pcaRes, KM: km, Graph: graph,
		SourceNames: names, SourceVecs: vecs, SourceMemberships: memberships,
		Sigma: sigma, BestTimes: best, Times: times,
		OfflineRuns:    data.Runs,
		SkippedCells:   data.SkippedCells,
		DroppedSources: append([]string(nil), data.DroppedSources...),
		InvalidVectors: invalidVecs,
	})
	return nil
}

// setKnowledge installs trained knowledge together with a fresh, unbuilt
// plan holder. Snapshots taken earlier keep the holder of the knowledge
// they copied.
func (s *System) setKnowledge(k *Knowledge) {
	s.knowledge, s.plan = k, &planHolder{}
}

// sharpMemberships maps a pruned correlation vector to label weights with a
// Gaussian kernel over centroid distances. Unlike plain inverse-distance
// weights, the kernel concentrates mass on nearby labels, so a target that
// clearly resembles one source group inherits that group's VM preferences
// instead of the catalog-wide average.
func sharpMemberships(km *kmeans.Model, vec []float64, sigma float64) []float64 {
	w := make([]float64, km.K)
	total := 0.0
	for c := 0; c < km.K; c++ {
		d := km.DistanceTo(vec, c)
		w[c] = math.Exp(-(d * d) / (2 * sigma * sigma))
		total += w[c]
	}
	if total <= 0 {
		// All distances astronomically large: fall back to the nearest.
		w[km.Predict(vec)] = 1
		return w
	}
	for c := range w {
		w[c] /= total
	}
	return w
}

// project selects the kept feature indices from a full vector.
func project(v []float64, kept []int) []float64 {
	out := make([]float64, len(kept))
	for i, j := range kept {
		out[i] = v[j]
	}
	return out
}

// PredictOnline runs the online predicting phase for one target workload
// (Section 4.2, Algorithm 1 lines 2, 5-14). The target row is folded in
// against the label factors of the knowledge's predict plan (plan.go); the
// first prediction after training builds the plan with one cold CMF solve,
// and concurrent callers block on that build and then share it.
//
// Degradation ladder under fault injection: a failed random-pick VM is
// substituted by the next VM in the same random permutation (the paper's
// protocol just asks for random reference points, not specific ones);
// calibration uses however many observations survived. Only an
// unrecoverable sandbox run — the target's feature vector and calibration
// anchor — aborts the prediction, with ErrSandboxFailed.
func (s *System) PredictOnline(target workload.App, meter oracle.Service) (*Prediction, error) {
	k := s.knowledge
	if k == nil {
		return nil, fmt.Errorf("vesta: PredictOnline before TrainOffline")
	}
	plan, err := s.plan.get(s)
	if err != nil {
		return nil, err
	}
	traceKey := ""
	if s.cfg.Tracer.Enabled() {
		traceKey = "predict/" + target.Name
		defer s.cfg.Tracer.Start(traceKey).End()
	}
	startRuns := meter.Runs()
	src := rng.New(s.cfg.Seed ^ hashString(target.Name))

	observed := map[string]float64{}
	observedLat := map[string]float64{}

	// Line 2: sandbox initialization run.
	sandbox := s.byName[s.cfg.SandboxVM]
	sp, err := meter.TryProfile(target, sandbox)
	if err != nil {
		return nil, fmt.Errorf("%w: %s on %s: %v", ErrSandboxFailed, target.Name, sandbox.Name, err)
	}
	observed[sandbox.Name] = sp.P90Seconds
	observedLat[sandbox.Name] = sp.P90LatencyMS
	// Only the kept features reach the prediction, so only they must be
	// finite: a meter that measured just those (the serving sandbox) leaves
	// the others NaN.
	targetVec := project(s.featureVector(sp), k.Kept)
	if !finiteVec(targetVec) {
		return nil, fmt.Errorf("%w: %s on %s: corrupt feature vector", ErrSandboxFailed, target.Name, sandbox.Name)
	}
	rawMembership := sharpMemberships(k.KM, targetVec, k.Sigma)

	// 3 randomly picked VM types initialize the CMF model (Section 4.2).
	// The walk goes down a single random permutation so that a failed pick
	// is replaced by the next candidate; fault-free this profiles exactly
	// the VMs Sample(n, k) == Perm(n)[:k] would have, with identical rng
	// consumption.
	pickable := make([]int, 0, len(s.catalog))
	for i, vm := range s.catalog {
		if vm.Name != sandbox.Name {
			pickable = append(pickable, i)
		}
	}
	wantPicks := min(s.cfg.InitRandomVMs, len(pickable))
	initFailures := 0
	got := 0
	for _, pi := range src.Perm(len(pickable)) {
		if got >= wantPicks {
			break
		}
		vm := s.catalog[pickable[pi]]
		p, err := meter.TryTime(target, vm)
		if err != nil {
			initFailures++
			if traceKey != "" {
				s.cfg.Tracer.Count("core.init_failures", 1)
				s.cfg.Tracer.Event(traceKey+"/init-failure/"+vm.Name,
					"random-pick profiling abandoned; substituting next candidate")
			}
			continue
		}
		observed[vm.Name] = p.P90Seconds
		observedLat[vm.Name] = p.P90LatencyMS
		got++
	}

	// Lines 5-12: CMF with shared label factors over U, V, and sparse U*.
	weights, converged := s.transfer(rawMembership, plan)

	// Convergence limitation (Section 5.3): measure how well the target
	// matches the offline knowledge in correlation space. A target far from
	// every source (Spark-CF's situation) "can hardly match with current
	// knowledge", so the online process stops and falls back to the raw
	// sandbox memberships.
	matchDist := math.Inf(1)
	for _, sv := range k.SourceVecs {
		if d := mat.Distance(targetVec, sv); d < matchDist {
			matchDist = d
		}
	}
	if !converged || matchDist > s.cfg.MatchThreshold {
		if traceKey != "" {
			s.cfg.Tracer.Count("core.fallbacks", 1)
			s.cfg.Tracer.Event(traceKey+"/fallback", fmt.Sprintf(
				"sandbox-only prediction: converged=%v match_dist=%s threshold=%s",
				converged, obs.FormatValue(matchDist), obs.FormatValue(s.cfg.MatchThreshold)))
		}
		weights = rawMembership
		converged = false
	}

	// Line 14: rank VM types through the label-VM layer, then project the
	// graph-vocabulary ranking onto the current catalog version (a no-op
	// while the catalog equals the trained vocabulary).
	ranking := s.adaptRanking(k.Graph.ScoreVMsFromWeights(weights))

	calSpan := s.cfg.Tracer.Start(traceKey + "/calibrate")
	predicted := s.calibrate(ranking, observed)
	calSpan.End()

	// Pick the best-scoring VM (deterministic tie-break inside ScoreVMs).
	bestVM := s.byName[ranking[0].VM]

	return &Prediction{
		Target: target.Name, Best: bestVM, Ranking: ranking,
		PredictedSec: predicted, LabelWeights: weights, PrunedVec: targetVec,
		Converged: converged, MatchDistance: matchDist,
		OnlineRuns:        meter.Runs() - startRuns,
		ObservedSec:       observed,
		ObservedLatencyMS: observedLat,
		InitFailures:      initFailures,
	}, nil
}

// PredictBatch runs the online phase for many target workloads across the
// worker pool, one fold-in per target. Each target draws its randomness
// from a seed derived from its own name (never from a shared Source) and
// meters through its own meter from meterFor(i), so the predictions are
// bit-identical to calling PredictOnline sequentially, at any worker count.
// The receiver's knowledge must not be mutated (e.g. by AbsorbTarget) while
// a batch is in flight.
func (s *System) PredictBatch(targets []workload.App, meterFor func(i int) oracle.Service) ([]*Prediction, error) {
	if s.knowledge == nil {
		return nil, fmt.Errorf("vesta: PredictBatch before TrainOffline")
	}
	return parallel.MapErrObs(s.cfg.Tracer, "predict/batch", s.cfg.Workers, len(targets),
		func(i int) (*Prediction, error) {
			return s.PredictOnline(targets[i], meterFor(i))
		})
}

// adaptNeighbors is how many trained VM types the score interpolation of a
// catalog newcomer averages over.
const adaptNeighbors = 5

// adaptRanking projects a knowledge-graph ranking onto the system's current
// catalog. While the catalog is exactly the trained VM vocabulary (every
// lineage at catalog version 0 over the training catalog) the ranking is
// returned untouched — bit-compatible with every release before catalogs
// became versioned. Otherwise:
//
//   - graph VMs retired from the catalog are dropped (never recommended),
//     though their scores still anchor interpolation;
//   - catalog VMs the graph has never seen (added types, other providers)
//     are scored by inverse-square-distance interpolation over their
//     adaptNeighbors nearest trained types in ResourceVector space — the
//     same embedding the label-VM layer was built from.
//
// The result is re-sorted with bipartite.ByScore, the order
// ScoreVMsFromWeights ranks in, so downstream consumers see one
// deterministic ranking over exactly the current catalog.
func (s *System) adaptRanking(ranking []bipartite.VMScore) []bipartite.VMScore {
	if len(s.catalog) == len(ranking) {
		same := true
		for _, r := range ranking {
			if _, ok := s.byName[r.VM]; !ok {
				same = false
				break
			}
		}
		if same {
			return ranking
		}
	}
	graphScore := make(map[string]float64, len(ranking))
	for _, r := range ranking {
		graphScore[r.VM] = r.Score
	}
	out := make([]bipartite.VMScore, 0, len(s.catalog))
	for _, v := range s.catalog {
		score, ok := graphScore[v.Name]
		if !ok {
			score = s.interpolateScore(v, ranking)
		}
		out = append(out, bipartite.VMScore{VM: v.Name, Score: score})
	}
	slices.SortFunc(out, bipartite.ByScore)
	return out
}

// interpolateScore estimates the graph score of a VM type outside the
// trained vocabulary: the inverse-square-distance weighted average of its
// adaptNeighbors nearest trained types in ResourceVector space. An exact
// resource twin (distance 0) takes that twin's score. Deterministic: the
// neighbor order ties-breaks on name and every input is a pure function of
// (catalog, knowledge).
func (s *System) interpolateScore(v cloud.VMType, ranking []bipartite.VMScore) float64 {
	rv := v.ResourceVector()
	type neighbor struct {
		name  string
		d     float64
		score float64
	}
	neighbors := make([]neighbor, 0, len(ranking))
	for _, r := range ranking {
		tv, ok := s.trained[r.VM]
		if !ok {
			continue // graph VM outside the trained catalog: unreachable by construction
		}
		neighbors = append(neighbors, neighbor{name: r.VM, d: mat.Distance(rv, tv.ResourceVector()), score: r.Score})
	}
	if len(neighbors) == 0 {
		return 0
	}
	sort.Slice(neighbors, func(i, j int) bool {
		if neighbors[i].d != neighbors[j].d {
			return neighbors[i].d < neighbors[j].d
		}
		return neighbors[i].name < neighbors[j].name
	})
	if neighbors[0].d == 0 {
		return neighbors[0].score
	}
	k := adaptNeighbors
	if k > len(neighbors) {
		k = len(neighbors)
	}
	var num, den float64
	for _, n := range neighbors[:k] {
		w := 1 / (n.d * n.d)
		num += w * n.score
		den += w
	}
	return num / den
}

// transfer places one target membership row in label space (Algorithm 1
// lines 5-12): the strongest memberships are the observed cells of the
// sparse U* row, which is folded in against the plan's converged label
// factors in closed form (cmf.FoldIn), drawing no rng. It returns the
// completed, re-normalized label weights; a failed fold-in yields the raw
// memberships and converged=false.
func (s *System) transfer(rawMembership []float64, plan *predictPlan) ([]float64, bool) {
	nLabels := len(s.knowledge.Labels)
	ustar := mat.New(1, nLabels)
	mask := mat.New(1, nLabels)
	// Observe only the strongest memberships: a single noisy sandbox run
	// reliably reveals the dominant label affinities, not the tail.
	for _, idx := range strongest(rawMembership, s.cfg.ObservedLabels) {
		ustar.Set(0, idx, rawMembership[idx])
		mask.Set(0, idx, 1)
	}

	filled, converged := cmf.FoldIn(ustar, mask, plan.l, s.planCMFConfig())
	if !converged {
		return rawMembership, false
	}
	completed := filled.Row(0)
	// Clamp negatives and re-normalize to a membership distribution; keep
	// the observed entries authoritative.
	for i := range completed {
		if mask.At(0, i) == 1 {
			completed[i] = rawMembership[i]
		}
		if completed[i] < 0 {
			completed[i] = 0
		}
	}
	total := 0.0
	for _, w := range completed {
		total += w
	}
	if total <= 0 {
		return rawMembership, false
	}
	for i := range completed {
		completed[i] /= total
	}
	return completed, converged
}

// strongest returns the indices of the n largest weights (all of them when
// n exceeds len(w)), largest first, ties broken by the smaller index.
func strongest(w []float64, n int) []int {
	order := make([]int, len(w))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if w[a] != w[b] {
			if w[a] > w[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	return order[:min(n, len(w))]
}

// calibrate turns graph scores into absolute time predictions using the
// observed runs. The label-VM score is proportional to normalized
// performance (best/time), so time follows a power law t = a * score^(-b);
// a and b are fit in log space from the sandbox and random-VM measurements
// (b = 1 when the observations cannot identify a slope). This is how Vesta
// anchors the transferred ranking to the new framework's absolute time
// scale with only 4 runs.
func (s *System) calibrate(ranking []bipartite.VMScore, observed map[string]float64) map[string]float64 {
	// Collect (log score, log time) pairs from the measurements, in sorted
	// VM order: map iteration order would vary the summation order of the
	// least-squares fit below and leak last-bit float differences into the
	// predictions, breaking the bit-identical reproducibility contract.
	vms := make([]string, 0, len(observed))
	for vm := range observed {
		vms = append(vms, vm)
	}
	sort.Strings(vms)
	// One scan of the ranking finds each observed VM's score (0 when the
	// ranking lacks it; the last entry wins should a VM repeat).
	scores := make([]float64, len(vms))
	for _, r := range ranking {
		if i, ok := slices.BinarySearch(vms, r.VM); ok {
			scores[i] = r.Score
		}
	}
	var lx, ly []float64
	for i, vm := range vms {
		if sc, sec := scores[i], observed[vm]; sc > 1e-9 && sec > 0 {
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

// PredictTime returns the predicted execution time of target on vm from an
// existing prediction.
func (p *Prediction) PredictTime(vm string) (float64, error) {
	sec, ok := p.PredictedSec[vm]
	if !ok {
		return 0, fmt.Errorf("vesta: no prediction for VM %q", vm)
	}
	return sec, nil
}

// AbsorbTarget records a completed target into the knowledge graph (the red
// edges of Figure 4) and retrains the K-Means model including the target's
// correlation vector (Algorithm 1 line 13) at low cost.
func (s *System) AbsorbTarget(name string, labelWeights []float64, prunedVec []float64) error {
	k := s.knowledge
	if k == nil {
		return fmt.Errorf("vesta: AbsorbTarget before TrainOffline")
	}
	if err := k.Graph.AddWorkload(name, bipartite.TargetEdge, labelWeights); err != nil {
		return err
	}
	if len(prunedVec) != len(k.SourceVecs[0]) {
		return fmt.Errorf("vesta: pruned vector has dim %d, want %d", len(prunedVec), len(k.SourceVecs[0]))
	}
	all := append(append([][]float64(nil), k.SourceVecs...), prunedVec)
	km, err := kmeans.Fit(all, kmeans.Config{K: s.cfg.K, Restarts: 2, MaxIters: 20, Workers: s.cfg.Workers,
		Tracer: s.cfg.Tracer, TraceKey: "absorb/" + name + "/kmeans"},
		rng.New(s.cfg.Seed+997))
	if err != nil {
		return err
	}
	k.KM = km
	return nil
}

// Objective selects what a sequential optimization minimizes.
type Objective int

// Optimization objectives: the paper's two practical metrics (Section 5.2).
const (
	MinimizeTime Objective = iota
	MinimizeBudget
)

// Optimize performs the Figure 12 protocol: after the online
// initialization, Vesta tries VM types in ranking order, recording the
// best-so-far execution time and budget per run. budget counts total
// reference runs including the sandbox and random initialization.
func (s *System) Optimize(target workload.App, budget int, meter oracle.Service) ([]oracle.Step, *Prediction, error) {
	return s.OptimizeFor(target, budget, MinimizeTime, meter)
}

// OptimizeFor is Optimize with an explicit objective: for MinimizeBudget
// (Figure 13) the exploitation order follows predicted cost (predicted time
// x cluster price) instead of predicted time.
func (s *System) OptimizeFor(target workload.App, budget int, objective Objective, meter oracle.Service) ([]oracle.Step, *Prediction, error) {
	if budget < 0 {
		return nil, nil, fmt.Errorf("vesta: negative optimization budget %d", budget)
	}
	pred, err := s.PredictOnline(target, meter)
	if err != nil {
		return nil, nil, err
	}
	order := make([]string, 0, len(pred.Ranking))
	for _, r := range pred.Ranking {
		order = append(order, r.VM)
	}
	if objective == MinimizeBudget {
		nodes := float64(meter.SimConfig().Nodes)
		costOf := func(vm string) float64 {
			return pred.PredictedSec[vm] * s.byName[vm].PriceHour * nodes
		}
		sort.SliceStable(order, func(a, b int) bool {
			ca, cb := costOf(order[a]), costOf(order[b])
			if ca != cb {
				return ca < cb
			}
			return order[a] < order[b]
		})
	}
	var steps []oracle.Step
	bestSec, bestUSD := math.Inf(1), math.Inf(1)
	runIdx := 0
	record := func(vmName string, sec float64) {
		runIdx++
		vm := s.byName[vmName]
		usd := sec / 3600 * vm.PriceHour * float64(meter.SimConfig().Nodes)
		if sec < bestSec {
			bestSec = sec
		}
		if usd < bestUSD {
			bestUSD = usd
		}
		steps = append(steps, oracle.Step{Run: runIdx, VM: vmName, ObservedSec: sec,
			ObservedUSD: usd, BestSec: bestSec, BestUSD: bestUSD})
	}
	// The initialization runs count toward the budget, in a deterministic
	// order (sandbox first, then the random picks sorted by name). The budget
	// floor applies to every recorded step, the sandbox run included: with
	// budget 0 the protocol records nothing (the initialization still charged
	// the meter — Figure-8 accounting — but no trial enters the curve).
	if runIdx < budget {
		record(s.cfg.SandboxVM, pred.ObservedSec[s.cfg.SandboxVM])
	}
	var initVMs []string
	for vm := range pred.ObservedSec {
		if vm != s.cfg.SandboxVM {
			initVMs = append(initVMs, vm)
		}
	}
	sort.Strings(initVMs)
	for _, vm := range initVMs {
		if runIdx >= budget {
			break
		}
		record(vm, pred.ObservedSec[vm])
	}
	// Exploit the objective-ordered ranking.
	tried := map[string]bool{}
	for vm := range pred.ObservedSec {
		tried[vm] = true
	}
	for _, vm := range order {
		if runIdx >= budget {
			break
		}
		if tried[vm] {
			continue
		}
		tried[vm] = true
		// A VM whose measurement campaign is abandoned yields no usable
		// observation; move on to the next candidate. The wasted attempts
		// still show up in the meter's run accounting.
		p, err := meter.TryTime(target, s.byName[vm])
		if err != nil {
			continue
		}
		record(vm, p.P90Seconds)
	}
	pred.OnlineRuns = len(steps)
	return steps, pred, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// hashString gives a stable 64-bit FNV-1a hash for seed mixing.
func hashString(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
