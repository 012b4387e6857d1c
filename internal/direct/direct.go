// Package direct implements O(N^2) direct summation of particle potentials,
// the exact reference that the treecode approximates (equation (1) of the
// paper) and the baseline in Figure 4. It provides a serial evaluator, a
// multicore evaluator parallelized over targets, and sampled-target
// evaluation for error measurement at large N (Section 4 samples the error
// at a random subset of targets for systems of 8M particles and up).
//
// All evaluators resolve the kernel's tiles (kernel.Tiles) once per call
// and cascade groups of targets through them widest first, so the O(N^2)
// inner loop streams the source arrays once per group and pays one
// dynamic dispatch per group, not per pairwise interaction. Each target's
// potential is accumulated from zero in source order whatever its group's
// width, so the result is bit-identical to the width-1 tile for exact
// kernels; kernels whose installed tile carries a measured-ULP contract
// (kernel.TileMaxULP > 0, e.g. the vectorized Yukawa exp) match it within
// that contract.
package direct

import (
	"fmt"

	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/pool"
)

// Sum computes phi[i] = sum_j G(x_i, y_j) q_j serially for all targets.
// When targets and sources are the same set, the singular self term is
// excluded by the kernel convention G(x,x) = 0.
func Sum(k kernel.Kernel, targets, sources *particle.Set) []float64 {
	return SumParallel(k, targets, sources, 1)
}

// SumParallel computes the same potentials using up to workers goroutines
// (workers <= 0 selects GOMAXPROCS). Targets are partitioned into
// contiguous blocks; each worker owns its block of the output and tiles
// within it, so no synchronization on phi is needed.
func SumParallel(k kernel.Kernel, targets, sources *particle.Set, workers int) []float64 {
	tiles := kernel.Tiles(k)
	phi := make([]float64, targets.Len())
	pool.Blocks(len(phi), workers, func(_, lo, hi int) {
		kernel.Accumulate(tiles, targets.X[lo:hi], targets.Y[lo:hi], targets.Z[lo:hi],
			sources.X, sources.Y, sources.Z, sources.Q, phi[lo:hi])
	})
	return phi
}

// SumAt computes the potentials only at the target indices in sample,
// returning them in the same order. This is the sampled reference used for
// error norms at large N; the indices need not be contiguous, and each
// worker gathers its share of the sampled targets into tiles. Every index
// is checked before any work starts: an index outside [0, targets.Len())
// panics on the calling goroutine with a message naming the index and the
// target count.
func SumAt(k kernel.Kernel, targets *particle.Set, sample []int, sources *particle.Set) []float64 {
	for _, si := range sample {
		if si < 0 || si >= targets.Len() {
			panic(fmt.Sprintf("direct: sample index %d out of range [0,%d)", si, targets.Len()))
		}
	}
	tiles := kernel.Tiles(k)
	phi := make([]float64, len(sample))
	pool.Blocks(len(sample), 0, func(_, lo, hi int) {
		n := hi - lo
		tx, ty, tz := make([]float64, n), make([]float64, n), make([]float64, n)
		for i, si := range sample[lo:hi] {
			tx[i], ty[i], tz[i] = targets.X[si], targets.Y[si], targets.Z[si]
		}
		kernel.Accumulate(tiles, tx, ty, tz, sources.X, sources.Y, sources.Z, sources.Q, phi[lo:hi])
	})
	return phi
}

// Interactions returns the number of kernel evaluations a full direct sum
// performs; the performance model converts it to modeled time for the
// Figure 4 reference lines.
func Interactions(targets, sources *particle.Set) int64 {
	return int64(targets.Len()) * int64(sources.Len())
}
