package core

import (
	"barytree/internal/kernel"
	"barytree/internal/particle"
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

// EvalDirectFieldTargetQ accumulates the potential and its gradient at one
// target due to direct summation over sources [cLo, cHi), with charges q
// (tree order) — the plan's own or a ChargeState's; the arithmetic is
// identical, so equal charges yield bit-identical sums.
func EvalDirectFieldTargetQ(k kernel.GradKernel, tg *particle.Set, ti int, src *particle.Set, q []float64, cLo, cHi int) (phi, gx, gy, gz float64) {
	tx, ty, tz := tg.X[ti], tg.Y[ti], tg.Z[ti]
	for j := cLo; j < cHi; j++ {
		g, dx, dy, dz := k.EvalGrad(tx, ty, tz, src.X[j], src.Y[j], src.Z[j])
		qq := q[j]
		phi += g * qq
		gx += dx * qq
		gy += dy * qq
		gz += dz * qq
	}
	return phi, gx, gy, gz
}

// EvalApproxFieldTarget accumulates the potential and gradient at one
// target due to a cluster's Chebyshev proxies: the same direct-sum shape
// as the potential-only kernel, with gradient evaluations of G.
func EvalApproxFieldTarget(k kernel.GradKernel, tg *particle.Set, ti int, px, py, pz, qhat []float64) (phi, gx, gy, gz float64) {
	tx, ty, tz := tg.X[ti], tg.Y[ti], tg.Z[ti]
	for j := range qhat {
		g, dx, dy, dz := k.EvalGrad(tx, ty, tz, px[j], py[j], pz[j])
		q := qhat[j]
		phi += g * q
		gx += dx * q
		gy += dy * q
		gz += dz * q
	}
	return phi, gx, gy, gz
}

// RunCPUFields evaluates potentials and gradients for the plan on the CPU
// backend. The modified charges are the ones already used for potentials
// (interpolation is in the source variable, so the gradient with respect
// to the target needs no new cluster data).
func RunCPUFields(pl *Plan, k kernel.GradKernel, opt CPUOptions) *FieldResult {
	opt.defaults()
	rate := opt.Spec.ParallelFlopRate()
	res := &FieldResult{}
	res.Times[perfmodel.PhaseSetup] = pl.SetupWork(opt.Spec)

	chargeFlops := pl.Clusters.ComputeCharges(pl.Sources, opt.Workers)
	res.Times[perfmodel.PhasePrecompute] = chargeFlops / rate

	n := pl.Batches.Targets.Len()
	phi := make([]float64, n)
	gx := make([]float64, n)
	gy := make([]float64, n)
	gz := make([]float64, n)
	runFieldsBatches(pl, k, pl.Sources.Particles.Q, pl.Clusters.Qhat, phi, gx, gy, gz, opt.Workers)
	res.Times[perfmodel.PhaseCompute] =
		float64(pl.Lists.Stats.TotalInteractions()) * (kernel.GradCost(k, kernel.ArchCPU) + 8) / rate

	res.Phi = make([]float64, n)
	res.GX = make([]float64, n)
	res.GY = make([]float64, n)
	res.GZ = make([]float64, n)
	pl.Batches.Perm.ScatterInto(res.Phi, phi)
	pl.Batches.Perm.ScatterInto(res.GX, gx)
	pl.Batches.Perm.ScatterInto(res.GY, gy)
	pl.Batches.Perm.ScatterInto(res.GZ, gz)
	return res
}

// runFieldsBatches walks every batch's interaction list accumulating
// potentials and gradients into phi/gx/gy/gz (batch target order), with
// charges q and modified charges qhat — the plan's own (RunCPUFields) or a
// ChargeState's (RunFieldsState). The loop structure and per-target add
// order are identical for both, so equal charges yield byte-identical
// fields. The gradient tile is resolved once here.
func runFieldsBatches(pl *Plan, k kernel.GradKernel, q []float64, qhat [][]float64, phi, gx, gy, gz []float64, workers int) {
	gt := kernel.GradTile(k)
	pool.For(len(pl.Batches.Batches), workers, func(bi int) {
		fieldBatchLists(pl, k, gt, bi, q, qhat, phi, gx, gy, gz)
	})
}

// fieldBatchLists accumulates batch bi's full interaction list into the
// field buffers (batch target order). With a gradient tile (gt != nil),
// TileWidth-target tiles walk the whole list — direct entries, then
// approximation entries, each source block streamed once per tile — and
// the last <TileWidth targets take the per-target path; without one, the
// per-target path runs the whole batch. The tile's accumulators are the
// buffers themselves, and the tile contract adds exactly one block total
// per list entry to each, so every target keeps the per-target path's add
// chain and its bits.
//
//hot:path
func fieldBatchLists(pl *Plan, k kernel.GradKernel, gt kernel.GradTileFunc, bi int, q []float64, qhat [][]float64, phi, gx, gy, gz []float64) {
	b := &pl.Batches.Batches[bi]
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	cd := pl.Clusters
	direct, approx := pl.Lists.Direct[bi], pl.Lists.Approx[bi]

	ti := b.Lo
	if gt != nil {
		for ; ti+kernel.TileWidth <= b.Hi; ti += kernel.TileWidth {
			tx, ty, tz := tileAt(tg.X, ti), tileAt(tg.Y, ti), tileAt(tg.Z, ti)
			p, x, y, z := tileAt(phi, ti), tileAt(gx, ti), tileAt(gy, ti), tileAt(gz, ti)
			for _, ci := range direct {
				nd := &pl.Sources.Nodes[ci]
				gt(tx, ty, tz, src.X[nd.Lo:nd.Hi], src.Y[nd.Lo:nd.Hi], src.Z[nd.Lo:nd.Hi], q[nd.Lo:nd.Hi], p, x, y, z)
			}
			for _, ci := range approx {
				gt(tx, ty, tz, cd.PX[ci], cd.PY[ci], cd.PZ[ci], qhat[ci], p, x, y, z)
			}
		}
	}
	for _, ci := range direct {
		nd := &pl.Sources.Nodes[ci]
		for tj := ti; tj < b.Hi; tj++ {
			p, x, y, z := EvalDirectFieldTargetQ(k, tg, tj, src, q, nd.Lo, nd.Hi)
			phi[tj] += p
			gx[tj] += x
			gy[tj] += y
			gz[tj] += z
		}
	}
	for _, ci := range approx {
		for tj := ti; tj < b.Hi; tj++ {
			p, x, y, z := EvalApproxFieldTarget(k, tg, tj, cd.PX[ci], cd.PY[ci], cd.PZ[ci], qhat[ci])
			phi[tj] += p
			gx[tj] += x
			gy[tj] += y
			gz[tj] += z
		}
	}
}

// RunFieldsState evaluates potentials and gradients against a ChargeState's
// charges into the four caller buffers (batch target order). The modified
// charges must be fresh (call st.Compute first). The plan is only read, so
// concurrent calls with distinct (st, buffers) are safe. Byte-identical to
// RunCPUFields' compute pass for equal charges.
func RunFieldsState(pl *Plan, k kernel.GradKernel, st *ChargeState, phi, gx, gy, gz []float64, workers int) {
	st.checkGen(pl)
	runFieldsBatches(pl, k, st.Q, st.Qhat, phi, gx, gy, gz, workers)
}

// tileAt views s[i:i+TileWidth] as a tile array, in place.
func tileAt(s []float64, i int) *[kernel.TileWidth]float64 {
	return (*[kernel.TileWidth]float64)(s[i:])
}
