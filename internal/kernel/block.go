package kernel

import "math"

// BlockKernel is the block-evaluation fast path: one call evaluates a whole
// block of sources against a single target and returns the accumulated
// charge-weighted potential
//
//	sum_j G(t, s_j) * q[j]
//
// in index order. This is the host-side analogue of the paper's inner GPU
// loop (Figure 3): the treecode's hot paths resolve a BlockKernel once per
// run (AsBlock) and then pay one dynamic dispatch per *block* instead of
// one per pairwise interaction, with a concrete, vectorizable loop inside.
//
// Contract: EvalBlockAccum must be bit-identical to the scalar reference
//
//	var phi float64
//	for j := range q { phi += k.Eval(tx, ty, tz, sx[j], sy[j], sz[j]) * q[j] }
//
// — same operations, same order, same rounding. Implementations may hoist
// loop-invariant parameter arithmetic (e.g. eps*eps) but must not reorder
// or fuse the per-source accumulation. sx, sy, sz and q always have equal
// length. All built-in kernels implement BlockKernel; custom kernels get
// the generic adapter from AsBlock and keep working unchanged. See
// docs/performance.md for the full contract.
type BlockKernel interface {
	Kernel
	EvalBlockAccum(tx, ty, tz float64, sx, sy, sz, q []float64) float64
}

// F32BlockKernel is the single-precision block fast path. Source
// coordinates and charges arrive as the float64 storage arrays and are
// rounded per element, exactly like the scalar F32 reference
//
//	var phi float32
//	for j := range q {
//		phi += k.EvalF32(tx, ty, tz, float32(sx[j]), float32(sy[j]), float32(sz[j])) * float32(q[j])
//	}
//
// with float32 accumulation (mirroring an fp32 GPU kernel).
type F32BlockKernel interface {
	F32Kernel
	EvalBlockAccumF32(tx, ty, tz float32, sx, sy, sz, q []float64) float32
}

// AsBlock resolves the block fast path for k: kernels implementing
// BlockKernel (all built-ins) are returned unchanged; any other Kernel —
// kernel.Func and user-defined kernels — is wrapped in a generic adapter
// whose block loop calls Eval per source, bit-identical to the scalar path.
// Resolve once per run, outside the hot loops.
func AsBlock(k Kernel) BlockKernel {
	if bk, ok := k.(BlockKernel); ok {
		return bk
	}
	return blockAdapter{k}
}

// AsF32Block resolves the single-precision block fast path for k, wrapping
// kernels without a native F32BlockKernel implementation in a generic
// adapter.
func AsF32Block(k F32Kernel) F32BlockKernel {
	if bk, ok := k.(F32BlockKernel); ok {
		return bk
	}
	return f32BlockAdapter{k}
}

// blockAdapter lifts any Kernel to BlockKernel with a per-source Eval loop.
type blockAdapter struct {
	Kernel
}

// EvalBlockAccum implements BlockKernel.
//
//hot:path
func (a blockAdapter) EvalBlockAccum(tx, ty, tz float64, sx, sy, sz, q []float64) float64 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	var phi float64
	for j := range q {
		phi += a.Kernel.Eval(tx, ty, tz, sx[j], sy[j], sz[j]) * q[j]
	}
	return phi
}

// f32BlockAdapter lifts any F32Kernel to F32BlockKernel.
type f32BlockAdapter struct {
	F32Kernel
}

// EvalBlockAccumF32 implements F32BlockKernel.
//
//hot:path
func (a f32BlockAdapter) EvalBlockAccumF32(tx, ty, tz float32, sx, sy, sz, q []float64) float32 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	var phi float32
	for j := range q {
		phi += a.F32Kernel.EvalF32(tx, ty, tz, float32(sx[j]), float32(sy[j]), float32(sz[j])) * float32(q[j])
	}
	return phi
}

// --- Hand-specialized fp64 block loops for the built-in kernels. Each body
// repeats its kernel's Eval expression verbatim (loop-invariant parameter
// products hoisted) so the accumulated sum is bit-identical to the scalar
// path while the loop itself is free of dynamic dispatch.

// coulombBlockHead, when non-nil, evaluates a prefix of a Coulomb block
// with SIMD sqrt/div — IEEE-correctly-rounded per lane, with the phi
// accumulation performed scalar in source order, so the bits match the
// plain loop exactly (see block_amd64.s). It returns the partial sum and
// the number of sources consumed; the caller finishes the tail with the
// scalar loop. Nil on architectures without an implementation and on x86
// CPUs without AVX.
var coulombBlockHead func(tx, ty, tz float64, sx, sy, sz, q []float64) (float64, int)

// EvalBlockAccum implements BlockKernel.
//
//hot:path
func (Coulomb) EvalBlockAccum(tx, ty, tz float64, sx, sy, sz, q []float64) float64 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	var phi float64
	j := 0
	if coulombBlockHead != nil {
		phi, j = coulombBlockHead(tx, ty, tz, sx, sy, sz, q)
	}
	for ; j < len(q); j++ {
		dx, dy, dz := tx-sx[j], ty-sy[j], tz-sz[j]
		r2 := dx*dx + dy*dy + dz*dz
		g := 0.0
		if r2 != 0 {
			g = 1 / math.Sqrt(r2)
		}
		phi += g * q[j]
	}
	return phi
}

// EvalBlockAccum implements BlockKernel.
//
//hot:path
func (k Yukawa) EvalBlockAccum(tx, ty, tz float64, sx, sy, sz, q []float64) float64 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	kappa := k.Kappa
	var phi float64
	for j := range q {
		dx, dy, dz := tx-sx[j], ty-sy[j], tz-sz[j]
		r2 := dx*dx + dy*dy + dz*dz
		g := 0.0
		if r2 != 0 {
			r := math.Sqrt(r2)
			g = math.Exp(-kappa*r) / r
		}
		phi += g * q[j]
	}
	return phi
}

// EvalBlockAccum implements BlockKernel.
//
//hot:path
func (g Gaussian) EvalBlockAccum(tx, ty, tz float64, sx, sy, sz, q []float64) float64 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	s2 := g.Sigma * g.Sigma
	var phi float64
	for j := range q {
		dx, dy, dz := tx-sx[j], ty-sy[j], tz-sz[j]
		r2 := dx*dx + dy*dy + dz*dz
		phi += math.Exp(-r2/s2) * q[j]
	}
	return phi
}

// EvalBlockAccum implements BlockKernel.
//
//hot:path
func (m Multiquadric) EvalBlockAccum(tx, ty, tz float64, sx, sy, sz, q []float64) float64 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	c2 := m.C * m.C
	var phi float64
	for j := range q {
		dx, dy, dz := tx-sx[j], ty-sy[j], tz-sz[j]
		phi += math.Sqrt(dx*dx+dy*dy+dz*dz+c2) * q[j]
	}
	return phi
}

// EvalBlockAccum implements BlockKernel.
//
//hot:path
func (r RegularizedCoulomb) EvalBlockAccum(tx, ty, tz float64, sx, sy, sz, q []float64) float64 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	e2 := r.Eps * r.Eps
	var phi float64
	for j := range q {
		dx, dy, dz := tx-sx[j], ty-sy[j], tz-sz[j]
		phi += softInvSqrt(dx*dx+dy*dy+dz*dz+e2) * q[j]
	}
	return phi
}

// EvalBlockAccum implements BlockKernel.
//
//hot:path
func (ip InversePower) EvalBlockAccum(tx, ty, tz float64, sx, sy, sz, q []float64) float64 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	e := -ip.P / 2
	var phi float64
	for j := range q {
		dx, dy, dz := tx-sx[j], ty-sy[j], tz-sz[j]
		r2 := dx*dx + dy*dy + dz*dz
		g := 0.0
		if r2 != 0 {
			g = math.Pow(r2, e)
		}
		phi += g * q[j]
	}
	return phi
}

// --- Hand-specialized fp32 block loops for the built-in F32 kernels.

// EvalBlockAccumF32 implements F32BlockKernel.
//
//hot:path
func (Coulomb) EvalBlockAccumF32(tx, ty, tz float32, sx, sy, sz, q []float64) float32 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	var phi float32
	for j := range q {
		dx, dy, dz := tx-float32(sx[j]), ty-float32(sy[j]), tz-float32(sz[j])
		r2 := dx*dx + dy*dy + dz*dz
		var g float32
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		phi += g * float32(q[j])
	}
	return phi
}

// EvalBlockAccumF32 implements F32BlockKernel.
//
//hot:path
func (k Yukawa) EvalBlockAccumF32(tx, ty, tz float32, sx, sy, sz, q []float64) float32 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	kappa := float32(k.Kappa)
	var phi float32
	for j := range q {
		dx, dy, dz := tx-float32(sx[j]), ty-float32(sy[j]), tz-float32(sz[j])
		r2 := dx*dx + dy*dy + dz*dz
		var g float32
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		phi += g * float32(q[j])
	}
	return phi
}

// EvalBlockAccumF32 implements F32BlockKernel.
//
//hot:path
func (g Gaussian) EvalBlockAccumF32(tx, ty, tz float32, sx, sy, sz, q []float64) float32 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	s := float32(g.Sigma)
	s2 := s * s
	var phi float32
	for j := range q {
		dx, dy, dz := tx-float32(sx[j]), ty-float32(sy[j]), tz-float32(sz[j])
		r2 := dx*dx + dy*dy + dz*dz
		phi += float32(math.Exp(float64(-r2/s2))) * float32(q[j])
	}
	return phi
}

// EvalBlockAccumF32 implements F32BlockKernel.
//
//hot:path
func (r RegularizedCoulomb) EvalBlockAccumF32(tx, ty, tz float32, sx, sy, sz, q []float64) float32 {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	e := float32(r.Eps)
	e2 := e * e
	var phi float32
	for j := range q {
		dx, dy, dz := tx-float32(sx[j]), ty-float32(sy[j]), tz-float32(sz[j])
		phi += softInvSqrtF32(dx*dx+dy*dy+dz*dz+e2) * float32(q[j])
	}
	return phi
}
