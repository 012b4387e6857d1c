package core

import (
	"barytree/internal/kernel"
	"barytree/internal/perfmodel"
	"barytree/internal/pool"
)

// FieldResult holds potentials and fields (negative forces per unit
// charge) at every target, in the caller's original target order.
type FieldResult struct {
	Phi        []float64
	GX, GY, GZ []float64 // gradient of phi at each target
	Times      perfmodel.PhaseTimes
}

// RunCPUFields evaluates potentials and gradients for the plan on the CPU
// backend. The modified charges are the ones already used for potentials
// (interpolation is in the source variable, so the gradient with respect
// to the target needs no new cluster data); they go into a fresh
// ChargeState, and the plan is only read.
func RunCPUFields(pl *Plan, k kernel.GradKernel, opt CPUOptions) *FieldResult {
	opt.defaults()
	res := SolveFields(pl, k, NewChargeState(pl), opt.Workers)
	res.Times = ModelCPURun(pl, k, opt.Spec)
	res.Times[perfmodel.PhaseCompute] =
		float64(pl.Lists.Stats.TotalInteractions()) * (kernel.GradCost(k, kernel.ArchCPU) + 8) / opt.Spec.ParallelFlopRate()
	return res
}

// SolveFields is SolvePotentials for potentials and gradients, the
// sequence of RunCPUFields and Plan.SolveWithField: it charges st (see
// ChargeState.Compute), evaluates every batch's interaction list and returns
// the fields in the caller's original target order (Times left zero).
func SolveFields(pl *Plan, k kernel.GradKernel, st *ChargeState, workers int) *FieldResult {
	st.Compute(pl, workers)
	n := pl.Batches.Targets.Len()
	phi := make([]float64, n)
	gx := make([]float64, n)
	gy := make([]float64, n)
	gz := make([]float64, n)
	RunFieldsState(pl, k, st, phi, gx, gy, gz, workers)
	res := &FieldResult{
		Phi: make([]float64, n),
		GX:  make([]float64, n),
		GY:  make([]float64, n),
		GZ:  make([]float64, n),
	}
	perm := pl.Batches.Perm
	perm.ScatterInto(res.Phi, phi)
	perm.ScatterInto(res.GX, gx)
	perm.ScatterInto(res.GY, gy)
	perm.ScatterInto(res.GZ, gz)
	return res
}

// fieldBatchLists accumulates batch bi's full interaction list into the
// field buffers (batch target order), widest gradient tile first: each
// group of targets walks the whole list — direct entries, then
// approximation entries — with the buffers themselves as accumulators.
// Each tile adds exactly one block total per list entry, so every target
// keeps the width-1 EvalGrad chain's add order and its bits.
//
//hot:path
func fieldBatchLists(pl *Plan, tiles []kernel.Sized[kernel.GradTile], bi int, q []float64, qhat [][]float64, phi, gx, gy, gz []float64) {
	b := &pl.Batches.Batches[bi]
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	nodes := pl.Sources.Nodes
	cd := pl.Clusters
	direct, approx := pl.Lists.Direct[bi], pl.Lists.Approx[bi]
	kernel.Cascade(tiles, b.Lo, b.Hi, func(tile kernel.GradTile, i, j int) {
		tx, ty, tz := tg.X[i:j], tg.Y[i:j], tg.Z[i:j]
		p, x, y, z := phi[i:j], gx[i:j], gy[i:j], gz[i:j]
		for _, ci := range direct {
			nd := &nodes[ci]
			tile(tx, ty, tz, src.X[nd.Lo:nd.Hi], src.Y[nd.Lo:nd.Hi], src.Z[nd.Lo:nd.Hi], q[nd.Lo:nd.Hi], p, x, y, z)
		}
		for _, ci := range approx {
			tile(tx, ty, tz, cd.PX[ci], cd.PY[ci], cd.PZ[ci], qhat[ci], p, x, y, z)
		}
	})
}

// RunFieldsState evaluates potentials and gradients against a ChargeState's
// charges into the four caller buffers (batch target order), walking every
// batch's list through the kernel's gradient tiles (resolved once). Every
// node an approximation list reads must be charged for the current plan
// generation (call st.Compute first); otherwise RunFieldsState panics. The plan is only
// read, so concurrent calls with distinct (st, buffers) are safe.
func RunFieldsState(pl *Plan, k kernel.GradKernel, st *ChargeState, phi, gx, gy, gz []float64, workers int) {
	st.checkCharged(pl)
	tiles := kernel.GradTiles(k)
	pool.For(len(pl.Batches.Batches), workers, func(bi int) {
		fieldBatchLists(pl, tiles, bi, st.Q, st.Qhat, phi, gx, gy, gz)
	})
}
