package kernel

import "math"

// GradKernel is the optional interface for kernels with an analytic
// gradient with respect to the *target* coordinate. The treecode computes
// forces kernel-independently from it: because the barycentric
// approximation interpolates in the source variable only, the field at a
// target is
//
//	grad phi(x) ~= sum_k grad_x G(x, s_k) qhat_k,
//
// a direct sum over the same proxy charges used for the potential — no new
// expansions, just gradient evaluations.
type GradKernel interface {
	Kernel
	// EvalGrad returns G(x, y) and its gradient with respect to x.
	// The self-interaction convention extends to the gradient:
	// EvalGrad(x, x) = (0, 0, 0, 0).
	EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64)
}

// EvalGrad implements GradKernel: grad 1/r = -(x-y)/r^3.
func (Coulomb) EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64) {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	r2 := dx*dx + dy*dy + dz*dz
	if r2 == 0 {
		return 0, 0, 0, 0
	}
	r := math.Sqrt(r2)
	inv := 1 / r
	c := -inv * inv * inv
	return inv, c * dx, c * dy, c * dz
}

// EvalGrad implements GradKernel:
// grad e^{-kr}/r = -e^{-kr} (kr + 1)/r^3 * (x-y).
func (k Yukawa) EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64) {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	r2 := dx*dx + dy*dy + dz*dz
	if r2 == 0 {
		return 0, 0, 0, 0
	}
	r := math.Sqrt(r2)
	e := math.Exp(-k.Kappa * r)
	g = e / r
	c := -e * (k.Kappa*r + 1) / (r2 * r)
	return g, c * dx, c * dy, c * dz
}

// EvalGrad implements GradKernel:
// grad e^{-r^2/s^2} = -2/s^2 e^{-r^2/s^2} (x-y).
func (gk Gaussian) EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64) {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	r2 := dx*dx + dy*dy + dz*dz
	s2 := gk.Sigma * gk.Sigma
	g = math.Exp(-r2 / s2)
	c := -2 / s2 * g
	return g, c * dx, c * dy, c * dz
}

// EvalGrad implements GradKernel:
// grad sqrt(r^2+c^2) = (x-y)/sqrt(r^2+c^2). With C = 0 the gradient is
// undefined at x = y; the self-interaction convention gives (0, 0, 0, 0).
func (m Multiquadric) EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64) {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	g = math.Sqrt(dx*dx + dy*dy + dz*dz + m.C*m.C)
	if g == 0 {
		return 0, 0, 0, 0
	}
	inv := 1 / g
	return g, inv * dx, inv * dy, inv * dz
}

// EvalGrad implements GradKernel:
// grad (r^2+eps^2)^{-1/2} = -(x-y)(r^2+eps^2)^{-3/2}. With Eps = 0 the
// kernel is Coulomb's, singular at x = y, where the self-interaction
// convention gives (0, 0, 0, 0).
func (rk RegularizedCoulomb) EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64) {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	d2 := dx*dx + dy*dy + dz*dz + rk.Eps*rk.Eps
	if d2 == 0 {
		return 0, 0, 0, 0
	}
	g = 1 / math.Sqrt(d2)
	c := -g / d2
	return g, c * dx, c * dy, c * dz
}

// GradTileFunc evaluates a source block against a TileWidth-target tile and
// adds each target's block sums of the potential and its gradient into
// phi, gx, gy and gz. Per target t it is bit-identical to
//
//	var p, x, y, z float64
//	for j := range q {
//		g, dx, dy, dz := k.EvalGrad(tx[t], ty[t], tz[t], sx[j], sy[j], sz[j])
//		p += g * q[j]
//		x += dx * q[j]
//		y += dy * q[j]
//		z += dz * q[j]
//	}
//	phi[t] += p
//	gx[t] += x
//	gy[t] += y
//	gz[t] += z
//
// — the TileKernel contract with four accumulator chains per target.
// len(q) must be positive.
type GradTileFunc func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi, gx, gy, gz *[TileWidth]float64)

// GradTile resolves the vectorized gradient tile for k, or nil when k has
// none (non-amd64 builds, CPUs without AVX, kernels other than
// RegularizedCoulomb, or asm kernels disabled via SetAsmKernels). There is
// deliberately no pure-Go tile: without the loop the drivers run
// per-target EvalGrad calls, the reference the loop is tested against,
// and a Go tile would keep the scalar chain's square root and two divides
// per interaction (docs/performance.md, "Field path"). Resolve once per
// run, outside the hot loops.
func GradTile(k Kernel) GradTileFunc {
	switch k := k.(type) {
	case RegularizedCoulomb:
		loop := regCoulombGradTileLoop
		if loop == nil {
			return nil
		}
		e2 := k.Eps * k.Eps
		return func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi, gx, gy, gz *[TileWidth]float64) {
			if len(q) == 0 {
				return
			}
			loop(tx, ty, tz, &sx[0], &sy[0], &sz[0], &q[0], len(q), e2, phi, gx, gy, gz)
		}
	}
	return nil
}

// regCoulombGradTileLoop, when non-nil, is the softened-Coulomb gradient
// tile over n > 0 sources with the four targets packed across YMM lanes
// (tile_amd64.s); e2 is Eps*Eps.
var regCoulombGradTileLoop func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q *float64, n int, e2 float64, phi, gx, gy, gz *[TileWidth]float64)

// GradCost returns the modeled flop-equivalents of one EvalGrad call: the
// base kernel cost plus the gradient arithmetic (~6 extra mul-adds and one
// extra divide-class operation).
func GradCost(k Kernel, arch Arch) float64 {
	c := costs(arch)
	return k.Cost(arch) + 6 + c.div
}
