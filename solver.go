package barytree

import (
	"barytree/internal/core"
)

// Solver amortizes the treecode's setup across repeated evaluations with
// the same particle positions. This is the access pattern of the paper's
// boundary-integral Poisson-Boltzmann application (reference [33]): an
// iterative linear solver updates the source charges every iteration while
// the geometry — tree, batches, interaction lists, Chebyshev grids — stays
// fixed; only the modified charges and the potential evaluation re-run.
//
// A Solver is a sequential convenience over the Plan API: it binds one
// kernel and one charge state to a Plan and reuses both across calls, so a
// charge update followed by Potentials allocates almost nothing. The Plan
// underneath is never mutated — several Solvers built with
// NewSolverFromPlan can share one Plan, each iterating independently
// (even concurrently, since each Solver owns its state). A single Solver
// is not safe for concurrent use; for concurrent one-shot solves call
// Plan.Solve instead.
type Solver struct {
	k      Kernel
	plan   *Plan
	state  *core.ChargeState
	params Params
}

// NewSolver builds the treecode structures once for the given geometry.
func NewSolver(k Kernel, targets, sources *Particles, p Params) (*Solver, error) {
	pl, err := NewPlan(targets, sources, p)
	if err != nil {
		return nil, err
	}
	return NewSolverFromPlan(k, pl), nil
}

// NewSolverFromPlan binds a kernel and fresh charge state to an existing
// Plan (for example one obtained from a plan cache). The initial charges
// are those the sources carried when the plan was built.
func NewSolverFromPlan(k Kernel, pl *Plan) *Solver {
	return &Solver{k: k, plan: pl, state: core.NewChargeState(pl.core), params: pl.params}
}

// Params returns the solver's treecode parameters.
func (s *Solver) Params() Params { return s.params }

// Plan returns the underlying shared Plan.
func (s *Solver) Plan() *Plan { return s.plan }

// NumTargets returns the number of targets.
func (s *Solver) NumTargets() int { return s.plan.NumTargets() }

// NumSources returns the number of sources.
func (s *Solver) NumSources() int { return s.plan.NumSources() }

// UpdateCharges replaces the source charges (given in the order the
// sources were passed to NewSolver) without rebuilding any geometry. The
// next Potentials call recomputes only the modified charges.
func (s *Solver) UpdateCharges(q []float64) error {
	return s.state.SetCharges(s.plan.core, q)
}

// Potentials evaluates the treecode with the current charges, returning
// potentials in the original target order. The first call (and the first
// call after each UpdateCharges) recomputes the modified charges; geometry
// is never rebuilt.
func (s *Solver) Potentials() []float64 {
	return core.SolvePotentials(s.plan.core, s.k, s.state, s.params.Workers)
}

// MatVec treats the treecode as the matrix-vector product phi = G*q of the
// dense interaction matrix G_ij = G(x_i, y_j): it updates the charges to q
// and returns the potentials. This is the operator an iterative Krylov
// solver calls once per iteration.
func (s *Solver) MatVec(q []float64) ([]float64, error) {
	if err := s.UpdateCharges(q); err != nil {
		return nil, err
	}
	return s.Potentials(), nil
}
