package kernel

import "math"

// F32Kernel is the optional single-precision evaluation interface used by
// the mixed-precision extension (listed as future work in the paper's
// conclusions). A kernel implementing F32Kernel evaluates with float32
// inputs, float32 arithmetic where the standard library permits, and a
// float32 result; special functions round through float64 (as GPU SFUs
// effectively do at reduced precision).
type F32Kernel interface {
	Kernel
	EvalF32(tx, ty, tz, sx, sy, sz float32) float32
}

// EvalF32 implements F32Kernel.
func (Coulomb) EvalF32(tx, ty, tz, sx, sy, sz float32) float32 {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	r2 := dx*dx + dy*dy + dz*dz
	if r2 == 0 {
		return 0
	}
	return 1 / float32(math.Sqrt(float64(r2)))
}

// EvalF32 implements F32Kernel.
func (k Yukawa) EvalF32(tx, ty, tz, sx, sy, sz float32) float32 {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	r2 := dx*dx + dy*dy + dz*dz
	if r2 == 0 {
		return 0
	}
	r := float32(math.Sqrt(float64(r2)))
	return float32(math.Exp(float64(-float32(k.Kappa)*r))) / r
}

// EvalF32 implements F32Kernel.
func (g Gaussian) EvalF32(tx, ty, tz, sx, sy, sz float32) float32 {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	r2 := dx*dx + dy*dy + dz*dz
	s := float32(g.Sigma)
	return float32(math.Exp(float64(-r2 / (s * s))))
}

// EvalF32 implements F32Kernel.
func (r RegularizedCoulomb) EvalF32(tx, ty, tz, sx, sy, sz float32) float32 {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	e := float32(r.Eps)
	return softInvSqrtF32(dx*dx + dy*dy + dz*dz + e*e)
}
