package core

import (
	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/perfmodel"
)

// Result is the output of a treecode run.
type Result struct {
	// Phi holds the potentials in the caller's original target order.
	Phi []float64
	// Times are the modeled phase durations (the paper's setup /
	// precompute / compute split) on the modeled architecture.
	Times perfmodel.PhaseTimes
	// Interactions are the interaction-list statistics of the run.
	Interactions interaction.Stats
}

// CPUOptions configure the CPU driver.
type CPUOptions struct {
	// Workers is the number of goroutines parallelizing over target
	// batches, the analogue of the paper's OpenMP threads (one batch's
	// interaction list per thread). 0 selects GOMAXPROCS; 1 is serial.
	Workers int
	// Spec is the modeled CPU. Zero value selects the paper's 6-core
	// Xeon X5650.
	Spec perfmodel.CPUSpec
}

// defaults selects the modeled CPU. Workers stays as given: the modeled
// core count only sets modeled times, and pool turns 0 into GOMAXPROCS.
func (o *CPUOptions) defaults() {
	if o.Spec.Cores == 0 {
		o.Spec = perfmodel.XeonX5650()
	}
}

// RunCPU evaluates the treecode plan on the CPU: modified charges for every
// source cluster an approximation reads, then each batch's interaction
// list (direct sums for near-field leaves, barycentric approximations for
// well-separated clusters), parallelized over batches. The charges go into
// a fresh ChargeState; the plan is only read. The modeled Times are
// ModelCPURun's, whose precompute is the paper's pass over every cluster.
func RunCPU(pl *Plan, k kernel.Kernel, opt CPUOptions) *Result {
	return &Result{
		Phi:          SolvePotentials(pl, k, NewChargeState(pl), opt.Workers),
		Times:        ModelCPURun(pl, k, opt.Spec),
		Interactions: pl.Lists.Stats,
	}
}

// evalBatchLists accumulates batch bi's full interaction list into phi
// (batch target order) through the kernel's tiles, widest first: each
// group of targets walks the whole list together, so every source block
// streams from memory once per group instead of once per target. Each
// tile adds one block total per list entry into phi in place, so every
// target's adds land in list order exactly as on the single-target path,
// whichever width its group has (up to each kernel's tile ULP contract).
//
// q and qhat supply a ChargeState's source charges (tree order) and
// per-node modified charges. The geometry always comes from the plan;
// q/qhat are only ever read, so concurrent calls with disjoint phi are
// safe.
//
//hot:path
func evalBatchLists(pl *Plan, tiles []kernel.Sized[kernel.Tile], bi int, phi, q []float64, qhat [][]float64) {
	b := &pl.Batches.Batches[bi]
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	nodes := pl.Sources.Nodes
	cd := pl.Clusters
	direct, approx := pl.Lists.Direct[bi], pl.Lists.Approx[bi]
	kernel.Cascade(tiles, b.Lo, b.Hi, func(tile kernel.Tile, i, j int) {
		tx, ty, tz, p := tg.X[i:j], tg.Y[i:j], tg.Z[i:j], phi[i:j]
		for _, ci := range direct {
			nd := &nodes[ci]
			tile(tx, ty, tz, src.X[nd.Lo:nd.Hi], src.Y[nd.Lo:nd.Hi], src.Z[nd.Lo:nd.Hi], q[nd.Lo:nd.Hi], p)
		}
		for _, ci := range approx {
			tile(tx, ty, tz, cd.PX[ci], cd.PY[ci], cd.PZ[ci], qhat[ci], p)
		}
	})
}

// computeFlops converts interaction counts into modeled flop-equivalents
// for the given kernel and architecture.
func computeFlops(st interaction.Stats, k kernel.Kernel, arch kernel.Arch) float64 {
	perEval := k.Cost(arch)
	// Each kernel evaluation is followed by a multiply-accumulate with the
	// (modified) charge.
	return float64(st.TotalInteractions()) * (perEval + 2)
}

// ModelCPURun returns the modeled phase times of a CPU treecode run without
// executing any kernels: setup from the plan's construction counters,
// precompute from the modified-charge work, compute from the interaction
// lists. RunCPU's Times field is exactly this.
func ModelCPURun(pl *Plan, k kernel.Kernel, spec perfmodel.CPUSpec) perfmodel.PhaseTimes {
	if spec.Cores == 0 {
		spec = perfmodel.XeonX5650()
	}
	rate := spec.ParallelFlopRate()
	var t perfmodel.PhaseTimes
	t[perfmodel.PhaseSetup] = pl.SetupWork(spec)
	t[perfmodel.PhasePrecompute] = pl.Clusters.TotalChargeWork(pl.Sources) / rate
	t[perfmodel.PhaseCompute] = computeFlops(pl.Lists.Stats, k, kernel.ArchCPU) / rate
	return t
}

// ModelDirectSumCPU returns the modeled seconds for a full direct summation
// of nt targets against ns sources on the given CPU with all cores active
// (the paper's Figure 4 reference line).
func ModelDirectSumCPU(cpu perfmodel.CPUSpec, k kernel.Kernel, nt, ns int) float64 {
	flops := float64(nt) * float64(ns) * (k.Cost(kernel.ArchCPU) + 2)
	return flops / cpu.ParallelFlopRate()
}
