package core

import (
	"fmt"

	"barytree/internal/kernel"
	"barytree/internal/pool"
)

// ChargeState is the mutable half of a solve: the source charges (in tree
// order) and the modified charges they induce. It is the only store of
// modified charges for everything that holds a Plan. Everything else a
// solve reads — tree, batches, interaction lists, Chebyshev grids — lives
// in the Plan and is never written after NewPlan, so any number of
// ChargeStates can evaluate against one shared Plan concurrently. This is
// the split the serving layer is built on: one cached Plan per geometry,
// one ChargeState per in-flight request.
//
// A ChargeState must not be shared between concurrent solves; it is the
// mutable state. Sequential reuse (an iterative solver calling
// SetCharges/Compute per iteration) is the intended pattern and allocates
// a small, size-independent number of objects per pass.
type ChargeState struct {
	// Q are the source charges in tree (leaf-contiguous) order.
	Q []float64
	// Qhat[i] are node i's modified charges, views into one flat arena.
	// Only charged nodes hold values; the others are never read.
	Qhat [][]float64

	charged []bool // charged[i]: Qhat[i] holds node i's modified charges for Q
	gen     uint64 // plan generation the state was created against
}

// checkGen panics if the plan has been Updated since the state was
// created: the state's charges are permuted for the old tree order and
// its arena may be sized for the old topology, so running it would
// silently evaluate stale geometry. Create a fresh state (or use
// Plan.Solve, which always does) after an Update.
func (st *ChargeState) checkGen(pl *Plan) {
	if st.gen != pl.gen {
		panic(fmt.Sprintf("core: charge state from plan generation %d used after Update (plan generation %d); create a new state",
			st.gen, pl.gen))
	}
}

// checkCharged is checkGen for the evaluation passes, which also need the
// modified charges of every node an approximation list reads: a state
// left partly charged by EvaluateSampled, or never charged at all, would
// evaluate garbage.
func (st *ChargeState) checkCharged(pl *Plan) {
	st.checkGen(pl)
	for _, approx := range pl.Lists.Approx {
		for _, ci := range approx {
			if !st.charged[ci] {
				panic(fmt.Sprintf("core: charge state lacks the modified charges of node %d, which an approximation reads; call Compute first", ci))
			}
		}
	}
}

// NewChargeState returns charge state sized for pl, initialized with the
// charges the sources carried when the plan was built. Compute (or
// EvaluateSampled, node by node) fills Qhat.
func NewChargeState(pl *Plan) *ChargeState {
	n := len(pl.Sources.Nodes)
	st := &ChargeState{
		Q:       make([]float64, pl.Sources.Particles.Len()),
		Qhat:    pl.Clusters.qhatSlots(n),
		charged: make([]bool, n),
		gen:     pl.gen,
	}
	copy(st.Q, pl.Sources.Particles.Q)
	return st
}

// SetCharges replaces the source charges. q is given in the order the
// sources were passed to NewPlan (original order); the state stores them
// permuted into tree order. A wrong count or a NaN or infinite charge is
// an error and leaves the state as it was. The next Compute recomputes
// the modified charges; the plan itself is not touched.
func (st *ChargeState) SetCharges(pl *Plan, q []float64) error {
	st.checkGen(pl)
	src := pl.Sources
	if len(q) != src.Particles.Len() {
		return fmt.Errorf("core: SetCharges got %d charges for %d sources", len(q), src.Particles.Len())
	}
	for i, v := range q {
		if !isFinite(v) {
			return fmt.Errorf("core: SetCharges got a non-finite charge at index %d", i)
		}
	}
	// Perm maps tree order -> original order.
	for treeIdx, origIdx := range src.Perm {
		st.Q[treeIdx] = q[origIdx]
	}
	st.Invalidate()
	return nil
}

// Compute fills the modified charges of every node that some batch's
// approximation list of pl reads and that is not yet charged for the
// current Q, using up to `workers` goroutines (<= 0 selects a sensible
// default). No evaluation of pl reads another node; a plan without lists
// (a bare source tree and its cluster data) reads, and so charges, every
// node. The flags come from pl's lists on every call, so nothing needs
// refreshing when Plan.Update changes the lists. Every node's operation
// order is fixed, so equal charges yield bit-identical modified charges
// for every worker count. It returns the modeled flop-equivalents of the
// paper's full charge pass over every node, or 0 if every node pl reads
// was already charged.
func (st *ChargeState) Compute(pl *Plan, workers int) float64 {
	st.checkGen(pl)
	if !st.chargeNodes(pl, approxReads(pl), workers) {
		return 0
	}
	return pl.Clusters.TotalChargeWork(pl.Sources)
}

// approxReads flags the nodes whose modified charges an evaluation of pl
// reads: those on some batch's approximation list, or every node for a
// plan without lists.
func approxReads(pl *Plan) []bool {
	if pl.Lists == nil {
		return everyNode(len(pl.Sources.Nodes))
	}
	reads := make([]bool, len(pl.Sources.Nodes))
	for _, approx := range pl.Lists.Approx {
		for _, ci := range approx {
			reads[ci] = true
		}
	}
	return reads
}

// chargeNodes computes, with up to workers goroutines, the modified
// charges of every node i that need[i] selects and that is not yet
// charged (see ClusterData.chargeNodes), and marks them charged. need is
// overwritten with the nodes it charges; it reports whether there were
// any.
func (st *ChargeState) chargeNodes(pl *Plan, need []bool, workers int) bool {
	todo := false
	for i, done := range st.charged {
		need[i] = need[i] && !done
		todo = todo || need[i]
	}
	if !todo {
		return false
	}
	pl.Clusters.chargeNodes(pl.Sources, st.Q, st.Qhat, need, workers)
	for i, n := range need {
		st.charged[i] = st.charged[i] || n
	}
	return true
}

// Invalidate marks the modified charges stale, forcing the next Compute to
// re-run (used after direct writes to Q).
func (st *ChargeState) Invalidate() {
	clear(st.charged)
}

// SolvePotentials is the charge, compute and scatter sequence of every
// potential solve on a plan (RunCPU, Plan.Solve, Solver, bltcd's POST
// /v1/solve): it charges st (see ChargeState.Compute), evaluates every
// batch's interaction list against it and returns the potentials in the
// caller's original target order. The plan is only read.
func SolvePotentials(pl *Plan, k kernel.Kernel, st *ChargeState, workers int) []float64 {
	st.Compute(pl, workers)
	phi := make([]float64, pl.Batches.Targets.Len())
	RunComputeState(pl, k, st, phi, workers)
	out := make([]float64, len(phi))
	pl.Batches.Perm.ScatterInto(out, phi)
	return out
}

// RunComputeState evaluates every batch's interaction list against the
// state's charges into phi (batch target order, length = number of
// targets), parallelized over batches with up to `workers` goroutines. The
// plan is only read; all mutable inputs come from st and all output goes to
// phi, so concurrent calls with distinct (st, phi) pairs are safe. Every
// node an approximation list reads must be charged for the current plan
// generation (call st.Compute first); otherwise RunComputeState panics.
// Returns the modeled compute-phase flop count.
func RunComputeState(pl *Plan, k kernel.Kernel, st *ChargeState, phi []float64, workers int) float64 {
	st.checkCharged(pl)
	tiles := kernel.Tiles(k)
	pool.For(len(pl.Batches.Batches), workers, func(bi int) {
		evalBatchLists(pl, tiles, bi, phi, st.Q, st.Qhat)
	})
	return computeFlops(pl.Lists.Stats, k, kernel.ArchCPU)
}
