package barytree

import (
	"fmt"

	"barytree/internal/core"
	"barytree/internal/kernel"
)

// Plan is the reusable product of the treecode's setup phase for one
// geometry: the source cluster tree, the target batches, the batch/cluster
// interaction lists and the per-cluster Chebyshev interpolation grids. A
// Plan is independent of both the interaction kernel and the source
// charges — it depends only on the particle *positions* and the Params —
// so one Plan serves any right-hand side under any kernel (the paper
// evaluates Coulomb and Yukawa on the same structures, Figure 4).
//
// The reuse contract:
//
//   - Stable: nothing mutates a Plan between NewPlan and an explicit
//     Update call. Every solve keeps its mutable state (charges, modified
//     charges, potentials) in per-call buffers.
//   - Concurrent-safe: any number of goroutines may call Solve,
//     SolveWithField (and NewSolverFromPlan-built solvers) on one Plan
//     simultaneously. Update is the one exception — it mutates the plan
//     and requires exclusive access; see Plan.Update.
//   - Kernel-independent: the kernel is an argument of Solve, not of the
//     Plan; switching kernels costs nothing.
//   - Deterministic: for equal inputs, Plan.Solve returns potentials
//     byte-identical to the one-shot Solve — same tree, same interaction
//     lists, same operation order.
//
// This is the library-level form of the serving layer's plan cache
// (internal/serve, cmd/bltcd): the daemon keys Plans by a geometry hash
// and runs every request through exactly this reuse path. See
// docs/serving.md and DESIGN.md §6. For dynamic simulations that move the
// particles every timestep, build with Params.Morton and step the plan
// with Update instead of rebuilding; see docs/performance.md ("Dynamic
// simulation: plan reuse across timesteps").
type Plan struct {
	core   *core.Plan
	params Params
	tracer *Tracer
}

// NewPlan runs the setup phase once — build the source tree and target
// batches, create the interaction lists, lay out the cluster grids — and
// returns the shareable Plan. The charges in sources are remembered as the
// default right-hand side for Solve(k, nil); only the positions influence
// the plan's structure. A Morton plan (Params.Morton) requires targets at
// the sources' positions and returns an error otherwise.
func NewPlan(targets, sources *Particles, p Params) (*Plan, error) {
	pl, err := core.NewPlan(targets, sources, p)
	if err != nil {
		return nil, err
	}
	return &Plan{core: pl, params: p}, nil
}

// Params returns the treecode parameters the plan was built with.
func (pl *Plan) Params() Params { return pl.params }

// NumTargets returns the number of targets.
func (pl *Plan) NumTargets() int { return pl.core.Batches.Targets.Len() }

// NumSources returns the number of sources.
func (pl *Plan) NumSources() int { return pl.core.Sources.Particles.Len() }

// Solve evaluates the treecode against the plan with source charges q
// (given in the order the sources were passed to NewPlan) and returns the
// potentials in the original target order. q == nil uses the charges the
// sources carried at NewPlan. Only the modified-charge pass and the
// potential evaluation run; no geometry is rebuilt.
//
// Solve is safe to call from any number of goroutines concurrently: the
// plan is only read, and each call owns its charge state and output. For
// the same geometry, charges and kernel, the result is byte-identical to
// the one-shot Solve function.
func (pl *Plan) Solve(k Kernel, q []float64) ([]float64, error) {
	st, err := pl.chargeState(q)
	if err != nil {
		return nil, err
	}
	return core.SolvePotentials(pl.core, k, st, pl.params.Workers), nil
}

// chargeState returns a fresh charge state for one solve: the build-time
// charges for q == nil, else q (original source order).
func (pl *Plan) chargeState(q []float64) (*core.ChargeState, error) {
	st := core.NewChargeState(pl.core)
	if q != nil {
		if err := st.SetCharges(pl.core, q); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// SolveWithField evaluates potentials *and* their gradients against the
// plan — the stepping path of dynamic simulations, which need forces every
// timestep without re-paying setup. The kernel must provide an analytic
// gradient: every built-in kernel constructor's does, a KernelFunc kernel
// does not (SolveWithField returns an error for it). q follows the same
// convention as Solve (original source order, nil for the build-time
// charges). For the same geometry, charges and kernel the result is
// byte-identical to the one-shot SolveWithField. Concurrent-safe like
// Solve.
func (pl *Plan) SolveWithField(k Kernel, q []float64) (*FieldResult, error) {
	gk, ok := k.(kernel.GradKernel)
	if !ok {
		return nil, fmt.Errorf("barytree: kernel %q provides no analytic gradient", k.Name())
	}
	st, err := pl.chargeState(q)
	if err != nil {
		return nil, err
	}
	r := core.SolveFields(pl.core, gk, st, pl.params.Workers)
	return &FieldResult{Phi: r.Phi, GX: r.GX, GY: r.GY, GZ: r.GZ}, nil
}

// UpdateAction is the structural path a Plan.Update took: refit, repair or
// rebuild.
type UpdateAction = core.UpdateAction

// The three update paths, cheapest first. See Plan.Update.
const (
	UpdateRefit   = core.UpdateRefit
	UpdateRepair  = core.UpdateRepair
	UpdateRebuild = core.UpdateRebuild
)

// UpdateStats reports which path an Update took and the evidence that
// drove the decision (tolerance breaches, cell drifters, MAC violations).
type UpdateStats = core.UpdateStats

// Update moves the plan to new particle positions — the timestep operation
// of a dynamic simulation. x, y, z are the new coordinates in the order
// the particles were originally passed to NewPlan; they must all have
// length NumSources. The plan must have been built with Params.Morton,
// which requires targets and sources at identical positions (the N-body
// setting: the same particles feel and exert the force).
//
// Update picks the cheapest structural path that keeps the plan exact for
// the new geometry — in-place box/grid refit when every particle stayed
// within a quarter of its leaf's drift scale of the leaf box and the
// cached interaction lists still pass the MAC recheck; incremental tree
// repair when drift is local; full rebuild otherwise — and reports the
// decision in UpdateStats. With unchanged positions the updated plan
// solves byte-identically to the original; after a repair or rebuild it
// is bit-identical to a fresh NewPlan at the new positions. If a tracer
// is attached (SetTracer), the decision is emitted as update.refit /
// update.repair / update.rebuild spans with drifter and violation
// counters.
//
// Update mutates the plan and requires exclusive access: no concurrent
// Solve calls, and Solvers bound to the plan before the update panic on
// their next use instead of returning stale results — rebind with
// NewSolverFromPlan after updating. Plan.Solve and Plan.SolveWithField
// create fresh per-call state and are always safe after Update returns.
func (pl *Plan) Update(x, y, z []float64) (UpdateStats, error) {
	return pl.core.Update(x, y, z, pl.tracer)
}

// SetTracer attaches a tracer to the plan: subsequent Update calls emit
// their refit/repair/rebuild decision as spans and counters on it. A nil
// tracer (the default) disables emission at zero cost. SetTracer is not
// concurrent-safe with Update.
func (pl *Plan) SetTracer(tr *Tracer) { pl.tracer = tr }
