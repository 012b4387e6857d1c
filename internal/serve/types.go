package serve

import (
	"fmt"

	"barytree/internal/core"
	"barytree/internal/kernel"
	"barytree/internal/particle"
)

// KernelSpec selects an interaction kernel by name over the wire. The
// parameter fields are kernel-specific; unused ones are ignored. Supported
// names: "coulomb" (default when the spec is omitted), "yukawa" (kappa),
// "gaussian" (sigma), "multiquadric" (c), "regularized-coulomb" (eps).
type KernelSpec struct {
	Name  string  `json:"name"`
	Kappa float64 `json:"kappa,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	C     float64 `json:"c,omitempty"`
	Eps   float64 `json:"eps,omitempty"`
}

// Build resolves the spec to a kernel. A nil spec is the Coulomb kernel.
func (ks *KernelSpec) Build() (kernel.Kernel, error) {
	if ks == nil {
		return kernel.Coulomb{}, nil
	}
	switch ks.Name {
	case "", "coulomb":
		return kernel.Coulomb{}, nil
	case "yukawa":
		if ks.Kappa < 0 {
			return nil, fmt.Errorf("yukawa kappa must be >= 0, got %g", ks.Kappa)
		}
		return kernel.Yukawa{Kappa: ks.Kappa}, nil
	case "gaussian":
		if ks.Sigma <= 0 {
			return nil, fmt.Errorf("gaussian sigma must be > 0, got %g", ks.Sigma)
		}
		return kernel.Gaussian{Sigma: ks.Sigma}, nil
	case "multiquadric":
		return kernel.Multiquadric{C: ks.C}, nil
	case "regularized-coulomb":
		if ks.Eps < 0 {
			return nil, fmt.Errorf("regularized-coulomb eps must be >= 0, got %g", ks.Eps)
		}
		return kernel.RegularizedCoulomb{Eps: ks.Eps}, nil
	}
	return nil, fmt.Errorf("unknown kernel %q (want coulomb, yukawa, gaussian, multiquadric or regularized-coulomb)", ks.Name)
}

// PointsSpec carries particle positions as parallel coordinate arrays
// (the wire form of the structure-of-arrays layout).
type PointsSpec struct {
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
	Z []float64 `json:"z"`
}

// set converts the spec to a particle set with zero charges (charges are
// per-request state, never part of a geometry).
func (ps *PointsSpec) set(what string) (*particle.Set, error) {
	if ps == nil {
		return nil, fmt.Errorf("%s missing", what)
	}
	n := len(ps.X)
	if n == 0 {
		return nil, fmt.Errorf("%s empty", what)
	}
	if len(ps.Y) != n || len(ps.Z) != n {
		return nil, fmt.Errorf("%s ragged coordinate arrays x=%d y=%d z=%d", what, n, len(ps.Y), len(ps.Z))
	}
	s := &particle.Set{X: ps.X, Y: ps.Y, Z: ps.Z, Q: make([]float64, n)}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", what, err)
	}
	return s, nil
}

// ParamsSpec carries treecode parameters over the wire. Omitted
// (zero-valued) specs select core.DefaultParams; individual fields cannot
// be defaulted piecewise — send the full set or none.
type ParamsSpec struct {
	Theta     float64 `json:"theta"`
	Degree    int     `json:"degree"`
	LeafSize  int     `json:"leaf_size"`
	BatchSize int     `json:"batch_size"`
}

// params resolves the spec (nil → DefaultParams) with the daemon's worker
// bound applied. Validation happens in core.NewPlan.
func (ps *ParamsSpec) params(workers int) core.Params {
	p := core.DefaultParams()
	if ps != nil && (ps.Theta != 0 || ps.Degree != 0 || ps.LeafSize != 0 || ps.BatchSize != 0) {
		p = core.Params{Theta: ps.Theta, Degree: ps.Degree, LeafSize: ps.LeafSize, BatchSize: ps.BatchSize}
	}
	p.Workers = workers
	return p
}

// GeometrySpec is the common geometry body of plan-creation and inline
// solve requests: targets (required), sources (omitted = targets) and
// treecode parameters (omitted = paper defaults).
type GeometrySpec struct {
	Targets *PointsSpec `json:"targets"`
	Sources *PointsSpec `json:"sources,omitempty"`
	Params  *ParamsSpec `json:"params,omitempty"`
}

// resolve converts the geometry to particle sets and parameters.
func (g *GeometrySpec) resolve(workers int) (targets, sources *particle.Set, p core.Params, err error) {
	targets, err = g.Targets.set("targets")
	if err != nil {
		return nil, nil, core.Params{}, err
	}
	sources = targets
	if g.Sources != nil {
		sources, err = g.Sources.set("sources")
		if err != nil {
			return nil, nil, core.Params{}, err
		}
	}
	return targets, sources, g.Params.params(workers), nil
}

// PlanRequest is the body of POST /v1/plans.
type PlanRequest struct {
	GeometrySpec
}

// PlanInfo describes one cached plan.
type PlanInfo struct {
	Plan     string `json:"plan"`
	Targets  int    `json:"targets"`
	Sources  int    `json:"sources"`
	Nodes    int    `json:"nodes"`
	Batches  int    `json:"batches"`
	Hits     uint64 `json:"hits"`
	Building bool   `json:"building,omitempty"`
}

// PlanResponse is the body returned by POST /v1/plans.
type PlanResponse struct {
	PlanInfo
	// Created reports whether this request ran the setup phase (false on
	// a cache hit).
	Created bool `json:"created"`
}

// PlanListResponse is the body of GET /v1/plans.
type PlanListResponse struct {
	Plans []PlanInfo `json:"plans"`
	Stats CacheStats `json:"stats"`
}

// SolveRequest is the body of POST /v1/solve. Exactly one of Plan (a key
// from POST /v1/plans or a previous solve) or inline geometry must be
// present. Charges are given in the order the source arrays were sent;
// potentials come back in the order the target arrays were sent.
type SolveRequest struct {
	Plan string `json:"plan,omitempty"`
	GeometrySpec
	Kernel  *KernelSpec `json:"kernel,omitempty"`
	Charges []float64   `json:"charges"`
}

// SolveResponse is the body returned by POST /v1/solve. Phi is
// byte-identical to what barytree.Solve returns for the same geometry,
// parameters, kernel and charges (Go's JSON encoding of float64 is
// shortest-round-trip, so the bits survive the wire).
type SolveResponse struct {
	Plan string `json:"plan"`
	// Cache is "hit" when the plan was reused, "miss" when this request
	// built it.
	Cache string    `json:"cache"`
	Phi   []float64 `json:"phi"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
