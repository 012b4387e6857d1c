package direct

import (
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/pool"
)

// Fields computes potentials and gradients at all targets by direct
// summation, parallelized over contiguous blocks of targets, each
// cascaded through the kernel's gradient tiles widest first. The returned
// slices are indexed by target.
func Fields(k kernel.GradKernel, targets, sources *particle.Set) (phi, gx, gy, gz []float64) {
	n := targets.Len()
	phi = make([]float64, n)
	gx = make([]float64, n)
	gy = make([]float64, n)
	gz = make([]float64, n)
	tiles := kernel.GradTiles(k)
	pool.Blocks(n, 0, func(_, lo, hi int) {
		kernel.Cascade(tiles, lo, hi, func(tile kernel.GradTile, i, j int) {
			tile(targets.X[i:j], targets.Y[i:j], targets.Z[i:j], sources.X, sources.Y, sources.Z, sources.Q,
				phi[i:j], gx[i:j], gy[i:j], gz[i:j])
		})
	})
	return phi, gx, gy, gz
}
