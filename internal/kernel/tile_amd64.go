//go:build amd64

package kernel

// coulombTileAVX evaluates a full Coulomb source block against a 4-target
// tile with the targets packed across YMM lanes (see tile_amd64.s). n must
// be positive; there is no alignment or multiple-of-anything requirement
// because each iteration broadcasts a single source to all four lanes.
//
//go:noescape
func coulombTileAVX(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q *float64, n int, phi *[TileWidth]float64)

// coulombTileAVX512 is the EVEX variant: same tile layout, but the
// reciprocal runs as a correctly-rounded Newton–Raphson sequence on the
// FMA ports, off the divide/sqrt unit that bounds the AVX loop. Requires
// AVX-512 F+VL. See tile_amd64.s.
//
//go:noescape
func coulombTileAVX512(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q *float64, n int, phi *[TileWidth]float64)

// coulombTile8AVX is the register-blocked 8-target Coulomb tile: two
// 4-lane groups sharing each source's broadcasts. AVX only. See
// tile_amd64.s.
//
//go:noescape
func coulombTile8AVX(tx, ty, tz *[Tile8Width]float64, sx, sy, sz, q *float64, n int, phi *[Tile8Width]float64)

// coulombTile8AVX512 is the EVEX 8-target variant: the second lane group
// lives entirely in the AVX-512VL upper register file (Y16-Y31) and both
// groups use the Newton–Raphson reciprocal. See tile_amd64.s.
//
//go:noescape
func coulombTile8AVX512(tx, ty, tz *[Tile8Width]float64, sx, sy, sz, q *float64, n int, phi *[Tile8Width]float64)

// coulombTile8ZMM is the 512-bit 8-target variant for parts with dual
// 512-bit FMA pipes: one ZMM lane group with the square root computed by
// a correctly-rounded Goldschmidt/Markstein sequence on the FMA ports,
// off the divide/sqrt unit that bounds the YMM tiles. Still bit-identical
// to the scalar loop. Requires AVX-512 F+VL. See tile_amd64.s.
//
//go:noescape
func coulombTile8ZMM(tx, ty, tz *[Tile8Width]float64, sx, sy, sz, q *float64, n int, phi *[Tile8Width]float64)

// regCoulombGradTileAVX evaluates the softened-Coulomb potential and
// gradient of a source block at a 4-target tile, bit-identical to the
// per-target EvalGrad chains (GradTileFunc's contract). e2 is Eps*Eps.
// AVX only. See tile_amd64.s.
//
//go:noescape
func regCoulombGradTileAVX(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q *float64, n int, e2 float64, phi, gx, gy, gz *[TileWidth]float64)

// yukawaTileFMA evaluates a Yukawa source block against a 4-target tile
// with exp computed by a range-reduced polynomial on the FMA ports
// (EXPPD in tile_amd64.s). Requires AVX2+FMA; carries the measured-ULP
// contract (YukawaTileMaxULP), not bit-identity. negKappa is -kappa.
//
//go:noescape
func yukawaTileFMA(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q *float64, n int, negKappa float64, phi *[TileWidth]float64)

// coulombTileF32AVX2 evaluates a Coulomb source block against an
// 8-target fp32 tile, bit-identical to the scalar fp32 chains. Requires
// AVX2 (register-source VBROADCASTSS). See tile_amd64.s.
//
//go:noescape
func coulombTileF32AVX2(tx, ty, tz *[F32TileWidth]float32, sx, sy, sz, q *float64, n int, phi *[F32TileWidth]float32)

// yukawaTileF32FMA evaluates a Yukawa source block against an 8-target
// fp32 tile, exact except for the widened EXPPD exp (YukawaTileF32MaxULP
// contract). Requires AVX2+FMA. negKappa is -float32(kappa).
//
//go:noescape
func yukawaTileF32FMA(tx, ty, tz *[F32TileWidth]float32, sx, sy, sz, q *float64, n int, negKappa float32, phi *[F32TileWidth]float32)

// cpuHasAVX512VL reports AVX512F+VL support with full OS state saving.
// Implemented in tile_amd64.s.
func cpuHasAVX512VL() bool

// cpuHasAVX2FMA reports AVX2 and FMA3 instruction support; the caller
// must additionally require cpuHasAVX for the OS-state half of the
// check. Implemented in tile_amd64.s.
func cpuHasAVX2FMA() bool

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

	// One installer for every assembly loop in the package (including
	// block_amd64.go's coulombBlockHead, which its own init also sets —
	// idempotently), so SetAsmKernels can flip them all together.
	asmInstall = func(on bool) {
		if !on {
			coulombBlockHead = nil
			coulombTileLoop = nil
			coulombTile8Loop = nil
			regCoulombGradTileLoop = nil
			yukawaTileLoop = nil
			coulombTileF32Loop = nil
			yukawaTileF32Loop = nil
			return
		}
		coulombBlockHead = coulombBlockHeadAVX
		tile := coulombTileAVX
		tile8 := coulombTile8AVX
		if avx512 {
			tile = coulombTileAVX512
			// The pair-wise Goldschmidt/divider ZMM tile overlaps the two
			// square-root resources (see tile_amd64.s); the register-blocked
			// coulombTile8AVX512 is kept built and tested as the 256-bit
			// alternative for parts where 512-bit execution doesn't pay.
			tile8 = coulombTile8ZMM
		}
		coulombTileLoop = func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi *[TileWidth]float64) {
			tile(tx, ty, tz, &sx[0], &sy[0], &sz[0], &q[0], len(q), phi)
		}
		coulombTile8Loop = func(tx, ty, tz *[Tile8Width]float64, sx, sy, sz, q []float64, phi *[Tile8Width]float64) {
			// Unlike the TileWidth loops, which sit behind EvalTileAccum
			// dispatch that already skips empty blocks, Tile8Func is
			// called directly by the drivers — guard the empty block here.
			if len(q) == 0 {
				return
			}
			tile8(tx, ty, tz, &sx[0], &sy[0], &sz[0], &q[0], len(q), phi)
		}
		regCoulombGradTileLoop = regCoulombGradTileAVX
		if !fma {
			return
		}
		yukawaTileLoop = func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, negKappa float64, phi *[TileWidth]float64) {
			yukawaTileFMA(tx, ty, tz, &sx[0], &sy[0], &sz[0], &q[0], len(q), negKappa, phi)
		}
		coulombTileF32Loop = func(tx, ty, tz *[F32TileWidth]float32, sx, sy, sz, q []float64, phi *[F32TileWidth]float32) {
			coulombTileF32AVX2(tx, ty, tz, &sx[0], &sy[0], &sz[0], &q[0], len(q), phi)
		}
		yukawaTileF32Loop = func(tx, ty, tz *[F32TileWidth]float32, sx, sy, sz, q []float64, negKappa float32, phi *[F32TileWidth]float32) {
			yukawaTileF32FMA(tx, ty, tz, &sx[0], &sy[0], &sz[0], &q[0], len(q), negKappa, phi)
		}
	}
	asmInstall(true)
}
