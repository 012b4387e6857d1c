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
// nothing after construction.
type ChargeState struct {
	// Q are the source charges in tree (leaf-contiguous) order.
	Q []float64
	// Qhat[i] are node i's modified charges, views into one flat arena.
	Qhat [][]float64

	charged  []bool // charged[i]: Qhat[i] holds node i's modified charges for Q
	nCharged int    // number of charged nodes
	gen      uint64 // plan generation the state was created against
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

// checkCharged is checkGen for the evaluation passes, which also need
// every node's modified charges: a state left partly charged by
// EvaluateSampled, or never charged at all, would evaluate garbage.
func (st *ChargeState) checkCharged(pl *Plan) {
	st.checkGen(pl)
	if st.nCharged != len(st.Qhat) {
		panic(fmt.Sprintf("core: charge state has %d of %d nodes charged; call Compute first",
			st.nCharged, len(st.Qhat)))
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
// permuted into tree order. The next Compute recomputes the modified
// charges; the plan itself is not touched.
func (st *ChargeState) SetCharges(pl *Plan, q []float64) error {
	st.checkGen(pl)
	src := pl.Sources
	if len(q) != src.Particles.Len() {
		return fmt.Errorf("core: SetCharges got %d charges for %d sources", len(q), src.Particles.Len())
	}
	// Perm maps tree order -> original order.
	for treeIdx, origIdx := range src.Perm {
		st.Q[treeIdx] = q[origIdx]
	}
	st.Invalidate()
	return nil
}

// Compute fills the modified charges of every node not yet charged for
// the current Q, using up to `workers` goroutines (<= 0 selects a sensible
// default). Each worker reuses one pooled scratch across its nodes and
// writes into the state's arena, so a steady-state pass allocates nothing;
// every node's operation order is fixed, so equal charges yield
// bit-identical modified charges for every worker count. It returns the
// modeled flop-equivalents of a full charge pass, and is a no-op returning
// 0 if every node is already charged.
func (st *ChargeState) Compute(pl *Plan, workers int) float64 {
	st.checkGen(pl)
	if st.nCharged == len(st.Qhat) {
		return 0
	}
	st.chargeNodes(pl, func(int) bool { return true }, workers)
	return pl.Clusters.TotalChargeWork(pl.Sources)
}

// chargeNodes computes, with up to workers goroutines, the modified
// charges of every node i that need(i) selects and that is not yet
// charged, and marks them charged.
func (st *ChargeState) chargeNodes(pl *Plan, need func(i int) bool, workers int) {
	cd, t := pl.Clusters, pl.Sources
	pool.Blocks(len(t.Nodes), workers, func(_, lo, hi int) {
		s := scratchPool.Get().(*chargeScratch)
		for i := lo; i < hi; i++ {
			if need(i) && !st.charged[i] {
				cd.computeChargesNodeInto(t.Particles, st.Q, &t.Nodes[i], i, s, st.Qhat[i])
			}
		}
		scratchPool.Put(s)
	})
	for i, done := range st.charged {
		if need(i) && !done {
			st.charged[i] = true
			st.nCharged++
		}
	}
}

// Invalidate marks the modified charges stale, forcing the next Compute to
// re-run (used after direct writes to Q).
func (st *ChargeState) Invalidate() {
	clear(st.charged)
	st.nCharged = 0
}

// SolvePotentials is the charge, compute and scatter sequence of every
// potential solve on a plan (RunCPU, Plan.Solve, Solver, bltcd's POST
// /v1/solve): it charges st where it is not yet charged, evaluates every
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
// node of st must be charged for the current plan generation (call
// st.Compute first); otherwise RunComputeState panics. Returns the modeled
// compute-phase flop count.
func RunComputeState(pl *Plan, k kernel.Kernel, st *ChargeState, phi []float64, workers int) float64 {
	st.checkCharged(pl)
	tiles := kernel.Tiles(k)
	pool.For(len(pl.Batches.Batches), workers, func(bi int) {
		evalBatchLists(pl, tiles, bi, phi, st.Q, st.Qhat)
	})
	return computeFlops(pl.Lists.Stats, k, kernel.ArchCPU)
}
