//go:build amd64

package kernel

// cpuHasAVX reports whether this CPU and OS support AVX (VEX.256 float
// math). Implemented in tile_amd64.s.
func cpuHasAVX() bool

// coulombTileAVX evaluates a full Coulomb source block against a 4-target
// tile with the targets packed across YMM lanes (see tile_amd64.s). n must
// be positive; there is no alignment or multiple-of-anything requirement
// because each iteration broadcasts a single source to all four lanes.
//
//go:noescape
func coulombTileAVX(tx, ty, tz *[4]float64, sx, sy, sz, q *float64, n int, phi *[4]float64)

// coulombTile8ZMM is the 512-bit 8-target tile for parts with dual
// 512-bit FMA pipes: one ZMM lane group, sources in pairs, every other
// square root computed by a correctly-rounded Goldschmidt/Markstein
// sequence on the FMA ports, off the divide/sqrt unit that bounds the
// YMM tile, and every reciprocal by Newton steps on the FMA ports.
// Bit-identical to the scalar loop except at a distance whose
// significand is all ones, (2 - 2^-52)·2^k, where its reciprocal is one
// ulp low. Requires AVX-512 F+VL. See tile_amd64.s.
//
//go:noescape
func coulombTile8ZMM(tx, ty, tz *[8]float64, sx, sy, sz, q *float64, n int, phi *[8]float64)

// regCoulombGradTileAVX evaluates the softened-Coulomb potential and
// gradient of a source block at a 4-target tile, bit-identical to the
// per-target EvalGrad chains (GradTile's contract). e2 is Eps*Eps.
// AVX only. See tile_amd64.s.
//
//go:noescape
func regCoulombGradTileAVX(tx, ty, tz *[4]float64, sx, sy, sz, q *float64, n int, e2 float64, phi, gx, gy, gz *[4]float64)

// regCoulombGradTile8ZMM is regCoulombGradTileAVX on an 8-target tile in
// one ZMM lane group, bit-identical to it on targets 0:4 and then 4:8:
// VSQRTPD and VDIVPD form g on the divider, and c = (-g)/d2 is a
// correctly rounded Markstein quotient on the FMA ports, with a VDIVPD
// patch for d2 outside [2^-600, 2^600]. Requires AVX-512F. See
// tile_amd64.s.
//
//go:noescape
func regCoulombGradTile8ZMM(tx, ty, tz *[8]float64, sx, sy, sz, q *float64, n int, e2 float64, phi, gx, gy, gz *[8]float64)

// yukawaTileFMA evaluates a Yukawa source block against a 4-target tile
// with exp computed by a range-reduced polynomial on the FMA ports
// (EXPPD in tile_amd64.s). Requires AVX2+FMA; carries the measured-ULP
// contract (YukawaTileMaxULP), not bit-identity. negKappa is -kappa.
//
//go:noescape
func yukawaTileFMA(tx, ty, tz *[4]float64, sx, sy, sz, q *float64, n int, negKappa float64, phi *[4]float64)

// yukawaTile8ZMM is yukawaTileFMA on an 8-target tile in one ZMM lane
// group, bit-identical to yukawaTileFMA on targets 0:4 and then 4:8: the
// same lane arithmetic, with EXPPD's exponent reassembly done by one
// VSCALEFPD that rounds as EXPPD's two multiplies do. So it carries the
// same YukawaTileMaxULP contract and moves no target to or from the
// scalar exp. The loop is software-pipelined over pairs of sources, four
// stages deep, and pairs the square roots across the two kinds of
// execution unit as coulombTile8ZMM does: the even source's on the
// divider (VSQRTPD), the odd source's on the FMA ports by the
// Goldschmidt/Markstein sequence both tiles share, equal to VSQRTPD bit
// for bit. Requires AVX-512F. See tile_amd64.s.
//
//go:noescape
func yukawaTile8ZMM(tx, ty, tz *[8]float64, sx, sy, sz, q *float64, n int, negKappa float64, phi *[8]float64)

// coulombTileF32AVX2 evaluates a Coulomb source block against an
// 8-target fp32 tile, bit-identical to the scalar fp32 chains. Requires
// AVX2 (register-source VBROADCASTSS). See tile_amd64.s.
//
//go:noescape
func coulombTileF32AVX2(tx, ty, tz *[8]float32, sx, sy, sz, q *float64, n int, phi *[8]float32)

// yukawaTileF32FMA evaluates a Yukawa source block against an 8-target
// fp32 tile, exact except for the widened EXPPD exp (YukawaTileF32MaxULP
// contract). Requires AVX2+FMA. negKappa is -float32(kappa).
//
//go:noescape
func yukawaTileF32FMA(tx, ty, tz *[8]float32, sx, sy, sz, q *float64, n int, negKappa float32, phi *[8]float32)

// cpuHasAVX512VL reports AVX512F+VL support with full OS state saving.
// Implemented in tile_amd64.s.
func cpuHasAVX512VL() bool

// cpuHasAVX2FMA reports AVX2 and FMA3 instruction support; the caller
// must additionally require cpuHasAVX for the OS-state half of the
// check. Implemented in tile_amd64.s.
func cpuHasAVX2FMA() bool

// asm4 and asm8 adapt the assembly's pointer-and-count frames to the Tile
// signature. The assembly needs at least one source; an empty block adds
// nothing.
type (
	asm4 func(tx, ty, tz *[4]float64, sx, sy, sz, q *float64, n int, phi *[4]float64)
	asm8 func(tx, ty, tz *[8]float64, sx, sy, sz, q *float64, n int, phi *[8]float64)
)

//hot:path
func (f asm4) tile(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	if len(q) > 0 {
		f((*[4]float64)(tx), (*[4]float64)(ty), (*[4]float64)(tz), &sx[0], &sy[0], &sz[0], &q[0], len(q), (*[4]float64)(phi))
	}
}

//hot:path
func (f asm8) tile(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	if len(q) > 0 {
		f((*[8]float64)(tx), (*[8]float64)(ty), (*[8]float64)(tz), &sx[0], &sy[0], &sz[0], &q[0], len(q), (*[8]float64)(phi))
	}
}

//hot:path
func coulombF32Tile8AVX2(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32) {
	if len(q) > 0 {
		coulombTileF32AVX2((*[8]float32)(tx), (*[8]float32)(ty), (*[8]float32)(tz), &sx[0], &sy[0], &sz[0], &q[0], len(q), (*[8]float32)(phi))
	}
}

//hot:path
func yukawaTile4FMA(tx, ty, tz, sx, sy, sz, q []float64, negKappa float64, phi []float64) {
	if len(q) > 0 {
		yukawaTileFMA((*[4]float64)(tx), (*[4]float64)(ty), (*[4]float64)(tz), &sx[0], &sy[0], &sz[0], &q[0], len(q), negKappa, (*[4]float64)(phi))
	}
}

//hot:path
func yukawaTile8ZMMSlices(tx, ty, tz, sx, sy, sz, q []float64, negKappa float64, phi []float64) {
	if len(q) > 0 {
		yukawaTile8ZMM((*[8]float64)(tx), (*[8]float64)(ty), (*[8]float64)(tz), &sx[0], &sy[0], &sz[0], &q[0], len(q), negKappa, (*[8]float64)(phi))
	}
}

//hot:path
func yukawaF32Tile8FMA(tx, ty, tz []float32, sx, sy, sz, q []float64, negKappa float32, phi []float32) {
	if len(q) > 0 {
		yukawaTileF32FMA((*[8]float32)(tx), (*[8]float32)(ty), (*[8]float32)(tz), &sx[0], &sy[0], &sz[0], &q[0], len(q), negKappa, (*[8]float32)(phi))
	}
}

//hot:path
func regCoulombGrad4AVX(tx, ty, tz, sx, sy, sz, q []float64, e2 float64, phi, gx, gy, gz []float64) {
	if len(q) > 0 {
		regCoulombGradTileAVX((*[4]float64)(tx), (*[4]float64)(ty), (*[4]float64)(tz), &sx[0], &sy[0], &sz[0], &q[0], len(q), e2,
			(*[4]float64)(phi), (*[4]float64)(gx), (*[4]float64)(gy), (*[4]float64)(gz))
	}
}

//hot:path
func regCoulombGrad8ZMM(tx, ty, tz, sx, sy, sz, q []float64, e2 float64, phi, gx, gy, gz []float64) {
	if len(q) > 0 {
		regCoulombGradTile8ZMM((*[8]float64)(tx), (*[8]float64)(ty), (*[8]float64)(tz), &sx[0], &sy[0], &sz[0], &q[0], len(q), e2,
			(*[8]float64)(phi), (*[8]float64)(gx), (*[8]float64)(gy), (*[8]float64)(gz))
	}
}

func init() {
	if !cpuHasAVX() {
		return
	}
	avx512 := cpuHasAVX512VL()
	fma := cpuHasAVX2FMA()
	switch {
	case avx512:
		cpuFeatureLevel = "avx512vl"
	case fma:
		cpuFeatureLevel = "avx2-fma"
	default:
		cpuFeatureLevel = "avx"
	}

	// One installer for every assembly tile in the package, so
	// SetAsmKernels can flip them all together.
	asmInstall = func(on bool) {
		if !on {
			coulombTile8Asm = nil
			coulombTile4Asm = nil
			coulombF32Tile8Asm = nil
			yukawaTile4Asm = nil
			yukawaTile8Asm = nil
			yukawaF32Tile8Asm = nil
			regCoulombGrad4Asm = nil
			regCoulombGrad8Asm = nil
			transferUpAsm = nil
			chargeRowsAsm = nil
			chargeUpdateAsm = nil
			return
		}
		coulombTile4Asm = asm4(coulombTileAVX).tile
		if avx512 {
			// The pair-wise Goldschmidt/divider ZMM tile overlaps the two
			// square-root resources (see tile_amd64.s).
			coulombTile8Asm = asm8(coulombTile8ZMM).tile
			transferUpAsm = transferUpZMMSlices
			chargeRowsAsm = chargeRowsZMMSlices
			chargeUpdateAsm = chargeUpdateZMMSlices
			regCoulombGrad8Asm = regCoulombGrad8ZMM
		}
		regCoulombGrad4Asm = regCoulombGrad4AVX
		if !fma {
			return
		}
		yukawaTile4Asm = yukawaTile4FMA
		coulombF32Tile8Asm = coulombF32Tile8AVX2
		yukawaF32Tile8Asm = yukawaF32Tile8FMA
		if avx512 {
			yukawaTile8Asm = yukawaTile8ZMMSlices
		}
	}
	asmInstall(true)
}
