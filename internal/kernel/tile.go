package kernel

import "math"

// Tile evaluates one source block against len(phi) targets and adds each
// target's block sum into phi in place:
//
//	for t := range phi {
//		var s float64
//		for j := range q {
//			s += k.Eval(tx[t], ty[t], tz[t], sx[j], sy[j], sz[j]) * q[j]
//		}
//		phi[t] += s
//	}
//
// Each target's sum is accumulated from zero in source order and lands in
// phi[t] with exactly one add, so splitting a target range into tiles of
// any widths, or evaluating a list of blocks tile by tile, never changes
// any target's rounding chain. This is the host-side analogue of the
// paper's GPU thread-block layout (Figure 3): a group of targets shares
// every streamed source or cluster block. Implementations may interleave
// the per-target chains, which are independent, but must not reorder any
// one of them; exact kernels are bit-identical to the loop above and
// transcendental kernels whose vector path approximates exp stay within
// TileMaxULP. A width-w tile is called with exactly w targets, except
// width-1 tiles, which loop over any number. sx, sy, sz and q have equal
// length, and the block may be empty.
type Tile func(tx, ty, tz, sx, sy, sz, q, phi []float64)

// F32Tile is Tile in single precision: float32 targets and accumulators,
// with the float64 source arrays rounded per element, so per target it
// is bit-identical (or within F32TileMaxULP) to
//
//	var s float32
//	for j := range q {
//		s += k.EvalF32(tx[t], ty[t], tz[t], float32(sx[j]), float32(sy[j]), float32(sz[j])) * float32(q[j])
//	}
//	phi[t] += s
type F32Tile func(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32)

// GradTile is Tile for the potential and its gradient: four chains per
// target, each bit-identical to its EvalGrad accumulation
//
//	var p, x, y, z float64
//	for j := range q {
//		g, dx, dy, dz := k.EvalGrad(tx[t], ty[t], tz[t], sx[j], sy[j], sz[j])
//		p += g * q[j]
//		x += dx * q[j]
//		y += dy * q[j]
//		z += dz * q[j]
//	}
//	phi[t] += p; gx[t] += x; gy[t] += y; gz[t] += z
type GradTile func(tx, ty, tz, sx, sy, sz, q, phi, gx, gy, gz []float64)

// Sized is a tile with the number of targets it evaluates per call.
type Sized[T any] struct {
	Width int
	Eval  T
}

// Cascade walks targets [lo, hi) widest tile first: as many groups of
// tiles[0].Width targets as fit, then groups of the next width from where
// those stopped, down to the final width-1 tile, which takes the rest. It
// calls body once per group [i, j) with the tile for that width. tiles is
// a resolver's result (Tiles, F32Tiles, GradTiles), whose last entry has
// width 1, so every target lands in exactly one group.
//
//hot:path
func Cascade[T any](tiles []Sized[T], lo, hi int, body func(tile T, i, j int)) {
	for _, s := range tiles {
		for ; lo+s.Width <= hi; lo += s.Width {
			body(s.Eval, lo, lo+s.Width)
		}
	}
}

// Accumulate adds one source block into the potentials phi of the targets
// (tx, ty, tz), widest tile first.
//
//hot:path
func Accumulate(tiles []Sized[Tile], tx, ty, tz, sx, sy, sz, q, phi []float64) {
	Cascade(tiles, 0, len(phi), func(tile Tile, i, j int) {
		tile(tx[i:j], ty[i:j], tz[i:j], sx, sy, sz, q, phi[i:j])
	})
}

// The assembly tiles (tile_amd64.go), installed by the amd64 init on CPUs
// that support them and cleared by SetAsmKernels(false); nil elsewhere.
// The parameterized ones take the kernel's constant after the sources:
// -Kappa for Yukawa, Eps*Eps for the softened-Coulomb gradient.
var (
	coulombTile8Asm    Tile
	coulombTile4Asm    Tile
	coulombF32Tile8Asm F32Tile
	yukawaTile4Asm     func(tx, ty, tz, sx, sy, sz, q []float64, negKappa float64, phi []float64)
	yukawaTile8Asm     func(tx, ty, tz, sx, sy, sz, q []float64, negKappa float64, phi []float64)
	yukawaF32Tile8Asm  func(tx, ty, tz []float32, sx, sy, sz, q []float64, negKappa float32, phi []float32)
	regCoulombGrad4Asm func(tx, ty, tz, sx, sy, sz, q []float64, e2 float64, phi, gx, gy, gz []float64)
	regCoulombGrad8Asm func(tx, ty, tz, sx, sy, sz, q []float64, e2 float64, phi, gx, gy, gz []float64)
)

// Tiles resolves k's fp64 tiles widest first, ending with its width-1
// tile. Coulomb runs 8 → 4 → 1 on avx512vl and 4 → 1 elsewhere: its
// width 4 is the AVX tile when installed and the Go loop otherwise, both
// bit-identical to the width-1 loop, and its width 8 is the ZMM tile,
// bit-identical too except at a distance whose significand is all ones,
// where its reciprocal is one ulp low. Elsewhere the cascade starts at 4
// because an exact kernel's width-8 tile is bit-identical to two width-4
// tiles of the same targets, and an AVX width 8 measured no faster than
// those two calls (docs/performance.md). Yukawa runs 8 → 4 → 1 on
// avx512vl and 4 → 1 elsewhere: its width 4 is the assembly tile under
// YukawaTileMaxULP when installed, its width 8 (the ZMM tile) is
// bit-identical to two of those width-4 calls, and its width 1 stays the
// math.Exp loop. Because 8 is a multiple of 4, the cascade sends the same
// targets to the vector exp with or without the width-8 tile, so which
// targets take it is the same on every driver and every machine with the
// width-4 tile. The other built-ins run their hand-specialized 4 → 1
// loops. Any other kernel, kernel.Func included, gets only the width-1
// Eval loop. Resolve once per driver call, outside the hot loops: the
// result follows SetAsmKernels only when resolved again.
func Tiles(k Kernel) []Sized[Tile] {
	switch k := k.(type) {
	case Coulomb:
		t4 := coulombTile4Asm
		if t4 == nil {
			t4 = k.tile4
		}
		if coulombTile8Asm != nil {
			return []Sized[Tile]{{8, coulombTile8Asm}, {4, t4}, {1, k.tile1}}
		}
		return []Sized[Tile]{{4, t4}, {1, k.tile1}}
	case Yukawa:
		t4 := Tile(k.tile4)
		if yukawaTile4Asm != nil {
			t4 = yukawaAsm{yukawaTile4Asm, -k.Kappa}.tile
		}
		if yukawaTile8Asm != nil {
			return []Sized[Tile]{{8, yukawaAsm{yukawaTile8Asm, -k.Kappa}.tile}, {4, t4}, {1, k.tile1}}
		}
		return []Sized[Tile]{{4, t4}, {1, k.tile1}}
	case Gaussian:
		return []Sized[Tile]{{4, k.tile4}, {1, k.tile1}}
	case Multiquadric:
		return []Sized[Tile]{{4, k.tile4}, {1, k.tile1}}
	case RegularizedCoulomb:
		return []Sized[Tile]{{4, k.tile4}, {1, k.tile1}}
	}
	return []Sized[Tile]{{1, evalLoop{k}.tile}}
}

// F32Tiles resolves k's single-precision tiles widest first: 8 → 1 for
// the built-in F32 kernels (the assembly width 8 for Coulomb and Yukawa
// when installed, the Go loops otherwise) and the width-1 EvalF32 loop
// alone for any other kernel.
func F32Tiles(k F32Kernel) []Sized[F32Tile] {
	switch k := k.(type) {
	case Coulomb:
		t8 := F32Tile(k.f32Tile8)
		if coulombF32Tile8Asm != nil {
			t8 = coulombF32Tile8Asm
		}
		return []Sized[F32Tile]{{8, t8}, {1, k.f32Tile1}}
	case Yukawa:
		t8 := F32Tile(k.f32Tile8)
		if yukawaF32Tile8Asm != nil {
			t8 = yukawaF32Asm{yukawaF32Tile8Asm, -float32(k.Kappa)}.tile
		}
		return []Sized[F32Tile]{{8, t8}, {1, k.f32Tile1}}
	case Gaussian:
		return []Sized[F32Tile]{{8, k.f32Tile8}, {1, k.f32Tile1}}
	case RegularizedCoulomb:
		return []Sized[F32Tile]{{8, k.f32Tile8}, {1, k.f32Tile1}}
	}
	return []Sized[F32Tile]{{1, evalF32Loop{k}.tile}}
}

// GradTiles resolves k's gradient tiles widest first. RegularizedCoulomb
// resolves 8 → 4 → 1 on avx512vl, 4 → 1 with AVX, and 1 without AVX or
// after SetAsmKernels(false). Its width 8 is the ZMM tile, bit-identical
// to two calls of its width 4, the AVX tile; its width 1 is gradTile1, a
// Go loop without dynamic dispatch. Each is bit-identical to the
// per-target EvalGrad chains. Every other gradient kernel gets only the
// width-1 loop that calls EvalGrad through the interface. There is
// deliberately no pure-Go wide gradient tile: it would keep the scalar
// chain's square root and two divides per interaction
// (docs/performance.md).
func GradTiles(k GradKernel) []Sized[GradTile] {
	rc, ok := k.(RegularizedCoulomb)
	if !ok {
		return []Sized[GradTile]{{1, evalGradLoop{k}.tile}}
	}
	t1 := Sized[GradTile]{1, rc.gradTile1}
	if regCoulombGrad4Asm == nil {
		return []Sized[GradTile]{t1}
	}
	e2 := rc.Eps * rc.Eps
	t4 := Sized[GradTile]{4, regCoulombGradAsm{regCoulombGrad4Asm, e2}.tile}
	if regCoulombGrad8Asm == nil {
		return []Sized[GradTile]{t4, t1}
	}
	return []Sized[GradTile]{{8, regCoulombGradAsm{regCoulombGrad8Asm, e2}.tile}, t4, t1}
}

// yukawaAsm, yukawaF32Asm and regCoulombGradAsm bind a kernel's constant
// to the assembly tile installed when it was resolved, so a resolved tile
// keeps its loop whatever SetAsmKernels does later.
type (
	yukawaAsm struct {
		asm      func(tx, ty, tz, sx, sy, sz, q []float64, negKappa float64, phi []float64)
		negKappa float64
	}
	yukawaF32Asm struct {
		asm      func(tx, ty, tz []float32, sx, sy, sz, q []float64, negKappa float32, phi []float32)
		negKappa float32
	}
	regCoulombGradAsm struct {
		asm func(tx, ty, tz, sx, sy, sz, q []float64, e2 float64, phi, gx, gy, gz []float64)
		e2  float64
	}
)

//hot:path
func (y yukawaAsm) tile(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	y.asm(tx, ty, tz, sx, sy, sz, q, y.negKappa, phi)
}

//hot:path
func (y yukawaF32Asm) tile(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32) {
	y.asm(tx, ty, tz, sx, sy, sz, q, y.negKappa, phi)
}

//hot:path
func (r regCoulombGradAsm) tile(tx, ty, tz, sx, sy, sz, q, phi, gx, gy, gz []float64) {
	r.asm(tx, ty, tz, sx, sy, sz, q, r.e2, phi, gx, gy, gz)
}

// evalLoop is the width-1 tile of a kernel without specialized loops: the
// Tile contract's reference loop, one Eval per pairwise interaction.
type evalLoop struct{ k Kernel }

//hot:path
func (l evalLoop) tile(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p float64
		for j := range q {
			p += l.k.Eval(x, y, z, sx[j], sy[j], sz[j]) * q[j]
		}
		phi[t] += p
	}
}

// evalF32Loop is the width-1 fp32 tile of a kernel without specialized
// loops.
type evalF32Loop struct{ k F32Kernel }

//hot:path
func (l evalF32Loop) tile(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p float32
		for j := range q {
			p += l.k.EvalF32(x, y, z, float32(sx[j]), float32(sy[j]), float32(sz[j])) * float32(q[j])
		}
		phi[t] += p
	}
}

// evalGradLoop is the width-1 tile of every gradient kernel but
// RegularizedCoulomb: per target, four EvalGrad chains accumulated from
// zero in source order.
type evalGradLoop struct{ k GradKernel }

//hot:path
func (l evalGradLoop) tile(tx, ty, tz, sx, sy, sz, q, phi, gx, gy, gz []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p, px, py, pz float64
		for j := range q {
			g, dx, dy, dz := l.k.EvalGrad(x, y, z, sx[j], sy[j], sz[j])
			qj := q[j]
			p += g * qj
			px += dx * qj
			py += dy * qj
			pz += dz * qj
		}
		phi[t] += p
		gx[t] += px
		gy[t] += py
		gz[t] += pz
	}
}

// Accuracy contract for the vectorized tiles, per kernel:
//
//   - An exact kernel's tiles are bit-identical to the per-target scalar
//     reference (the Tile contract): TileMaxULP reports 0 and the tests
//     compare with `==`.
//   - A transcendental kernel whose vector path approximates exp/log/...
//     differently from math.* cannot be exact; it instead pins a measured
//     per-pairwise-term ULP bound. TileMaxULP reports that bound, and the
//     tests check |tile - scalar| against it (scaled by the sum of
//     absolute terms for multi-source blocks, since per-term errors
//     accumulate additively at worst).
//
// The bounds are constants, not knobs: they were measured over the fuzz
// corpus and the full [-745, 710] exp argument range with margin, and
// TestYukawaTileULPContract fails if the implementation ever drifts past
// them, exactly as the bit-identity tests fail on a single flipped bit.
const (
	// YukawaTileMaxULP bounds |tile - scalar| for one pairwise Yukawa term
	// of the vector fp64 tiles (yukawaTileFMA at width 4, yukawaTile8ZMM
	// at width 8, which equals two width-4 calls bit for bit), in fp64
	// ulps of the scalar term. EXPPD's error budget: ~2.2 ulp from the
	// polynomial + reduction, ~0.5 from the scale rounding, ~0.5 from the
	// division, against math.Exp's own ~1 ulp. TestYukawaTileULPContract
	// measures at most 2 ulp at both widths, and the fuzz corpus once
	// reached 4; 6 leaves margin without weakening the contract below
	// observability.
	YukawaTileMaxULP = 6

	// YukawaTileF32MaxULP bounds the fp32 Yukawa tile's per-term error in
	// float32 ulps. The fp64 exp error above narrows to <= 1 ulp32 almost
	// everywhere; 3 covers the narrowing+division double rounding worst
	// case observed under fuzzing (max seen: 2).
	YukawaTileF32MaxULP = 3
)

// TileMaxULP reports the accuracy contract of k's fp64 tiles against the
// scalar per-target reference: 0 means every tile Tiles(k) resolves is
// bit-identical (`==`), n > 0 means pairwise terms may differ by up to n
// ulps (transcendental kernels whose vector exp is not math.Exp). The Go
// loops are exact by construction. The result reflects the loops
// installed right now, so it follows SetAsmKernels.
func TileMaxULP(k Kernel) int {
	if _, ok := k.(Yukawa); ok && yukawaTile4Asm != nil {
		return YukawaTileMaxULP
	}
	return 0
}

// F32TileMaxULP is TileMaxULP for the single-precision tiles, in float32
// ulps.
func F32TileMaxULP(k F32Kernel) int {
	if _, ok := k.(Yukawa); ok && yukawaF32Tile8Asm != nil {
		return YukawaTileF32MaxULP
	}
	return 0
}

// --- Hand-specialized Go tiles for the built-in kernels, width 4 (fp64)
// and width 8 (fp32). Each loop nest streams the source arrays once: for
// every source, all targets evaluate their kernel expression (repeated
// verbatim from the scalar Eval, loop-invariant parameter products
// hoisted) and advance their own scalar accumulator chain, so each
// chain's bits match the width-1 loop exactly while the sources are
// loaded once per tile.

// tile4 is Coulomb's width-4 tile.
//
//hot:path
func (Coulomb) tile4(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	var p0, p1, p2, p3 float64
	for j := range q {
		sxj, syj, szj, qj := sx[j], sy[j], sz[j], q[j]
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		r2 := dx*dx + dy*dy + dz*dz
		g := 0.0
		if r2 != 0 {
			g = 1 / math.Sqrt(r2)
		}
		p0 += g * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			g = 1 / math.Sqrt(r2)
		}
		p1 += g * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			g = 1 / math.Sqrt(r2)
		}
		p2 += g * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			g = 1 / math.Sqrt(r2)
		}
		p3 += g * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
}

// tile4 is Yukawa's width-4 tile.
//
//hot:path
func (k Yukawa) tile4(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	kappa := k.Kappa
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	var p0, p1, p2, p3 float64
	for j := range q {
		sxj, syj, szj, qj := sx[j], sy[j], sz[j], q[j]
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		r2 := dx*dx + dy*dy + dz*dz
		g := 0.0
		if r2 != 0 {
			r := math.Sqrt(r2)
			g = math.Exp(-kappa*r) / r
		}
		p0 += g * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			r := math.Sqrt(r2)
			g = math.Exp(-kappa*r) / r
		}
		p1 += g * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			r := math.Sqrt(r2)
			g = math.Exp(-kappa*r) / r
		}
		p2 += g * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			r := math.Sqrt(r2)
			g = math.Exp(-kappa*r) / r
		}
		p3 += g * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
}

// tile4 is Gaussian's width-4 tile.
//
//hot:path
func (g Gaussian) tile4(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	s2 := g.Sigma * g.Sigma
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	var p0, p1, p2, p3 float64
	for j := range q {
		sxj, syj, szj, qj := sx[j], sy[j], sz[j], q[j]
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		p0 += math.Exp(-(dx*dx+dy*dy+dz*dz)/s2) * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		p1 += math.Exp(-(dx*dx+dy*dy+dz*dz)/s2) * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		p2 += math.Exp(-(dx*dx+dy*dy+dz*dz)/s2) * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		p3 += math.Exp(-(dx*dx+dy*dy+dz*dz)/s2) * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
}

// tile4 is Multiquadric's width-4 tile.
//
//hot:path
func (m Multiquadric) tile4(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	c2 := m.C * m.C
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	var p0, p1, p2, p3 float64
	for j := range q {
		sxj, syj, szj, qj := sx[j], sy[j], sz[j], q[j]
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		p0 += math.Sqrt(dx*dx+dy*dy+dz*dz+c2) * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		p1 += math.Sqrt(dx*dx+dy*dy+dz*dz+c2) * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		p2 += math.Sqrt(dx*dx+dy*dy+dz*dz+c2) * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		p3 += math.Sqrt(dx*dx+dy*dy+dz*dz+c2) * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
}

// tile4 is RegularizedCoulomb's width-4 tile.
//
//hot:path
func (r RegularizedCoulomb) tile4(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	e2 := r.Eps * r.Eps
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	var p0, p1, p2, p3 float64
	for j := range q {
		sxj, syj, szj, qj := sx[j], sy[j], sz[j], q[j]
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		p0 += softInvSqrt(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		p1 += softInvSqrt(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		p2 += softInvSqrt(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		p3 += softInvSqrt(dx*dx+dy*dy+dz*dz+e2) * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
}

// f32Tile8 is Coulomb's width-8 fp32 tile.
//
//hot:path
func (Coulomb) f32Tile8(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	tx4, tx5, tx6, tx7 := tx[4], tx[5], tx[6], tx[7]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	ty4, ty5, ty6, ty7 := ty[4], ty[5], ty[6], ty[7]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	tz4, tz5, tz6, tz7 := tz[4], tz[5], tz[6], tz[7]
	var p0, p1, p2, p3, p4, p5, p6, p7 float32
	for j := range q {
		sxj, syj, szj := float32(sx[j]), float32(sy[j]), float32(sz[j])
		qj := float32(q[j])
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		r2 := dx*dx + dy*dy + dz*dz
		var g float32
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p0 += g * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p1 += g * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p2 += g * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p3 += g * qj
		dx, dy, dz = tx4-sxj, ty4-syj, tz4-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p4 += g * qj
		dx, dy, dz = tx5-sxj, ty5-syj, tz5-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p5 += g * qj
		dx, dy, dz = tx6-sxj, ty6-syj, tz6-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p6 += g * qj
		dx, dy, dz = tx7-sxj, ty7-syj, tz7-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p7 += g * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
	phi[4] += p4
	phi[5] += p5
	phi[6] += p6
	phi[7] += p7
}

// f32Tile8 is Yukawa's width-8 fp32 tile.
//
//hot:path
func (k Yukawa) f32Tile8(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	kappa := float32(k.Kappa)
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	tx4, tx5, tx6, tx7 := tx[4], tx[5], tx[6], tx[7]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	ty4, ty5, ty6, ty7 := ty[4], ty[5], ty[6], ty[7]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	tz4, tz5, tz6, tz7 := tz[4], tz[5], tz[6], tz[7]
	var p0, p1, p2, p3, p4, p5, p6, p7 float32
	for j := range q {
		sxj, syj, szj := float32(sx[j]), float32(sy[j]), float32(sz[j])
		qj := float32(q[j])
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		r2 := dx*dx + dy*dy + dz*dz
		var g float32
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p0 += g * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p1 += g * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p2 += g * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p3 += g * qj
		dx, dy, dz = tx4-sxj, ty4-syj, tz4-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p4 += g * qj
		dx, dy, dz = tx5-sxj, ty5-syj, tz5-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p5 += g * qj
		dx, dy, dz = tx6-sxj, ty6-syj, tz6-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p6 += g * qj
		dx, dy, dz = tx7-sxj, ty7-syj, tz7-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p7 += g * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
	phi[4] += p4
	phi[5] += p5
	phi[6] += p6
	phi[7] += p7
}

// f32Tile8 is Gaussian's width-8 fp32 tile.
//
//hot:path
func (g Gaussian) f32Tile8(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	s := float32(g.Sigma)
	s2 := s * s
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	tx4, tx5, tx6, tx7 := tx[4], tx[5], tx[6], tx[7]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	ty4, ty5, ty6, ty7 := ty[4], ty[5], ty[6], ty[7]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	tz4, tz5, tz6, tz7 := tz[4], tz[5], tz[6], tz[7]
	var p0, p1, p2, p3, p4, p5, p6, p7 float32
	for j := range q {
		sxj, syj, szj := float32(sx[j]), float32(sy[j]), float32(sz[j])
		qj := float32(q[j])
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		p0 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		p1 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		p2 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		p3 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx4-sxj, ty4-syj, tz4-szj
		p4 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx5-sxj, ty5-syj, tz5-szj
		p5 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx6-sxj, ty6-syj, tz6-szj
		p6 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx7-sxj, ty7-syj, tz7-szj
		p7 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
	phi[4] += p4
	phi[5] += p5
	phi[6] += p6
	phi[7] += p7
}

// f32Tile8 is RegularizedCoulomb's width-8 fp32 tile.
//
//hot:path
func (r RegularizedCoulomb) f32Tile8(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	e := float32(r.Eps)
	e2 := e * e
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	tx4, tx5, tx6, tx7 := tx[4], tx[5], tx[6], tx[7]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	ty4, ty5, ty6, ty7 := ty[4], ty[5], ty[6], ty[7]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	tz4, tz5, tz6, tz7 := tz[4], tz[5], tz[6], tz[7]
	var p0, p1, p2, p3, p4, p5, p6, p7 float32
	for j := range q {
		sxj, syj, szj := float32(sx[j]), float32(sy[j]), float32(sz[j])
		qj := float32(q[j])
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		p0 += softInvSqrtF32(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		p1 += softInvSqrtF32(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		p2 += softInvSqrtF32(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		p3 += softInvSqrtF32(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx4-sxj, ty4-syj, tz4-szj
		p4 += softInvSqrtF32(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx5-sxj, ty5-syj, tz5-szj
		p5 += softInvSqrtF32(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx6-sxj, ty6-syj, tz6-szj
		p6 += softInvSqrtF32(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx7-sxj, ty7-syj, tz7-szj
		p7 += softInvSqrtF32(dx*dx+dy*dy+dz*dz+e2) * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
	phi[4] += p4
	phi[5] += p5
	phi[6] += p6
	phi[7] += p7
}
