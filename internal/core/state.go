package core

import (
	"fmt"

	"barytree/internal/kernel"
	"barytree/internal/pool"
)

// ChargeState is the per-request mutable half of a solve: the source
// charges (in tree order) and the modified charges they induce. Everything
// else a solve reads — tree, batches, interaction lists, Chebyshev grids —
// lives in the Plan and is never written after NewPlan, so any number of
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
	// Qhat[i] are node i's modified charges, views into one flat arena
	// laid out exactly like the plan's own modified-charge arena.
	Qhat [][]float64

	arena []float64
	fresh bool   // Qhat valid for current Q
	gen   uint64 // plan generation the state was created against
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

// NewChargeState returns charge state sized for pl, initialized with the
// charges the sources carried when the plan was built. The first Compute
// (or a driver) fills Qhat.
func NewChargeState(pl *Plan) *ChargeState {
	cd := pl.Clusters
	n := len(pl.Sources.Nodes)
	m := cd.Degree + 1
	np := m * m * m
	st := &ChargeState{
		Q:     make([]float64, pl.Sources.Particles.Len()),
		Qhat:  make([][]float64, n),
		arena: make([]float64, n*np),
		gen:   pl.gen,
	}
	copy(st.Q, pl.Sources.Particles.Q)
	for i := 0; i < n; i++ {
		st.Qhat[i] = st.arena[i*np : (i+1)*np : (i+1)*np]
	}
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
	st.fresh = false
	return nil
}

// Compute fills the modified charges for the current Q using up to
// `workers` goroutines (<= 0 selects a sensible default), exactly as
// ClusterData.ComputeCharges does for the plan's own charges: same passes,
// same per-node operation order, so equal charges yield bit-identical
// modified charges. It returns the modeled flop-equivalents of the work,
// and is a no-op returning 0 if Qhat is already valid for Q.
func (st *ChargeState) Compute(pl *Plan, workers int) float64 {
	st.checkGen(pl)
	if st.fresh {
		return 0
	}
	cd := pl.Clusters
	t := pl.Sources
	flops := cd.TotalChargeWork(t)
	pool.Blocks(len(t.Nodes), workers, func(_, lo, hi int) {
		s := scratchPool.Get().(*chargeScratch)
		for i := lo; i < hi; i++ {
			cd.computeChargesNodeInto(t.Particles, st.Q, &t.Nodes[i], i, s, st.Qhat[i])
		}
		scratchPool.Put(s)
	})
	st.fresh = true
	return flops
}

// Invalidate marks the modified charges stale, forcing the next Compute to
// re-run (used after direct writes to Q).
func (st *ChargeState) Invalidate() { st.fresh = false }

// ResetToPlan restores the charges the sources carried when the plan was
// built and marks the state stale. It makes a recycled state (e.g. from a
// serving-layer pool) indistinguishable from a fresh NewChargeState: both
// SetCharges and ResetToPlan overwrite every charge, so no prior request's
// values can leak into the next solve.
func (st *ChargeState) ResetToPlan(pl *Plan) {
	st.checkGen(pl)
	copy(st.Q, pl.Sources.Particles.Q)
	st.fresh = false
}

// RunComputeState evaluates every batch's interaction list against the
// state's charges into phi (batch target order, length = number of
// targets), parallelized over batches with up to `workers` goroutines. The
// plan is only read; all mutable inputs come from st and all output goes to
// phi, so concurrent calls with distinct (st, phi) pairs are safe. The
// modified charges must be fresh (call st.Compute first). Returns the
// modeled compute-phase flop count.
func RunComputeState(pl *Plan, k kernel.Kernel, st *ChargeState, phi []float64, workers int) float64 {
	tiles := kernel.Tiles(k)
	pool.For(len(pl.Batches.Batches), workers, func(bi int) {
		evalBatchLists(pl, tiles, bi, phi, st.Q, st.Qhat)
	})
	return computeFlops(pl.Lists.Stats, k, kernel.ArchCPU)
}

// GroupMember is one request of a coalesced compute pass: a kernel, its
// charge state (already Computed) and its output buffer (batch target
// order).
type GroupMember struct {
	Kernel kernel.Kernel
	State  *ChargeState
	Phi    []float64
}

// RunComputeGroup evaluates several requests against one shared plan in a
// single tiled parallel pass: the work items are all (member, batch) pairs,
// so one worker pool spans the whole group instead of one pool per request.
// Each item writes only its own member's Phi range and walks its batch's
// interaction list in list order, exactly as RunComputeState does — so each
// member's output is bit-identical to a solo RunComputeState with the same
// state, regardless of how many requests share the pass or how items are
// scheduled. This is the batching path of the serving layer's request
// coalescing.
func RunComputeGroup(pl *Plan, members []GroupMember, workers int) {
	nb := len(pl.Batches.Batches)
	tiles := make([][]kernel.Sized[kernel.Tile], len(members))
	for i := range members {
		tiles[i] = kernel.Tiles(members[i].Kernel)
	}
	pool.For(len(members)*nb, workers, func(idx int) {
		mi, bi := idx/nb, idx%nb
		m := &members[mi]
		evalBatchLists(pl, tiles[mi], bi, m.Phi, m.State.Q, m.State.Qhat)
	})
}
