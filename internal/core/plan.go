// Predict plan: the per-request cost of the online phase would be dominated
// by work that does not depend on the request at all — rebuilding the CMF
// source matrices from the knowledge graph and fitting the shared label
// factors L over hundreds of SGD epochs. The plan does that work once per
// trained knowledge: it is a pure function of (knowledge, config), built
// lazily by the first prediction and shared by every snapshot cloned from
// the system (AbsorbTarget only adds a workload node and refits K-Means;
// the source memberships U and the label-VM layer LV never change after
// offline training, so the plan stays valid across epochs and catalog
// versions). Each prediction then folds its target row in against the
// plan's converged L in closed form (cmf.FoldIn). Installing new knowledge
// (TrainFromData, LoadKnowledge) gives the system a new plan holder.
package core

import (
	"fmt"
	"math"
	"sync"

	"vesta/internal/cmf"
	"vesta/internal/mat"
	"vesta/internal/rng"
)

// planSalt derives the plan solve's rng stream from the system seed. It is
// a fixed arbitrary constant: the plan must be reproducible from (knowledge,
// config) alone, so the stream cannot depend on any request or wall clock.
const planSalt = 0x7653507265646374 // "VsPredct"

// predictPlan is the precomputed request-independent slice of the online
// phase: the shared label factors L (labels x latent dim) of a CMF solve over
// the source relations alone. Immutable after construction and safe for
// concurrent use by any number of predictions.
type predictPlan struct {
	l *mat.Matrix
	// x, t and epochs are the rest of the plan solve's result: the source
	// factors and the epoch count. Requests never read them; checkpoints
	// carry them so the plan field keeps the format earlier releases decode
	// (see planJSON).
	x, t   *mat.Matrix
	epochs int
}

// buildPlan derives the plan from the trained knowledge with one cold CMF
// solve over the source relations only (the target row is present but
// unobserved, so X* stays at its random init and contributes nothing to the
// fit). The converged L is what every request folds its target into.
func (s *System) buildPlan() (*predictPlan, error) {
	k := s.knowledge
	if k == nil {
		return nil, fmt.Errorf("vesta: plan before TrainOffline")
	}
	nLabels := len(k.Labels)
	res, err := cmf.Solve(cmf.Problem{
		U: mat.FromRows(k.SourceMemberships), V: k.Graph.LV().T(),
		UStar: mat.New(1, nLabels), Mask: mat.New(1, nLabels),
	}, s.planCMFConfig(), rng.New(s.cfg.Seed^planSalt))
	if err != nil {
		return nil, fmt.Errorf("vesta: plan solve: %w", err)
	}
	for _, v := range res.L.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("vesta: plan solve diverged")
		}
	}
	return &predictPlan{l: res.L, x: res.X, t: res.T, epochs: res.Epochs}, nil
}

// planCMFConfig is the CMF configuration of the plan solve and the request
// fold-ins alike, so both optimize the same Equation 6 objective.
func (s *System) planCMFConfig() cmf.Config {
	return cmf.Config{
		LatentDim: s.cfg.LatentDim,
		Lambda:    s.cfg.Lambda,
		LambdaSet: s.cfg.LambdaSet,
		MaxEpochs: s.cfg.CMFEpochs,
	}
}

// restorePlan reconstructs a plan from a snapshot checkpoint's plan field,
// validating every factor's shape against the knowledge it is about to serve
// before building the matrices.
func (s *System) restorePlan(pj *planJSON) (*predictPlan, error) {
	k := s.knowledge
	if k == nil {
		return nil, fmt.Errorf("vesta: plan before TrainOffline")
	}
	factors := []struct {
		name string
		rows [][]float64
		want int
	}{
		{"x", pj.X, len(k.SourceMemberships)},
		{"t", pj.T, len(k.Graph.VMs())},
		{"l", pj.L, len(k.Labels)},
	}
	for _, f := range factors {
		if len(f.rows) != f.want {
			return nil, fmt.Errorf("vesta: decoded plan factors %s have %d rows, knowledge needs %d", f.name, len(f.rows), f.want)
		}
		if err := checkRows("decoded plan factors "+f.name, f.rows, s.cfg.LatentDim); err != nil {
			return nil, err
		}
	}
	if pj.Epochs < 0 {
		return nil, fmt.Errorf("vesta: decoded plan has %d epochs", pj.Epochs)
	}
	return &predictPlan{
		l: mat.FromRows(pj.L), x: mat.FromRows(pj.X), t: mat.FromRows(pj.T), epochs: pj.Epochs,
	}, nil
}

// planHolder shares one lazily-built plan across a system and every
// snapshot cloned from it. The zero holder builds on first use; a holder
// seeded by DecodeSnapshot starts done.
type planHolder struct {
	mu   sync.Mutex
	done bool
	plan *predictPlan
	err  error
}

// get returns the plan, building it from sys on first call. Because the
// plan is a pure function of (knowledge, config) and every system sharing
// the holder has the same source memberships and label-VM layer, it does
// not matter which of them triggers the build.
func (h *planHolder) get(sys *System) (*predictPlan, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.done {
		h.plan, h.err = sys.buildPlan()
		h.done = true
	}
	return h.plan, h.err
}

// peek returns the plan only if it has already been built successfully.
func (h *planHolder) peek() *predictPlan {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done && h.err == nil {
		return h.plan
	}
	return nil
}
