package kernel

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// tileTestSizes covers every residue mod 4 and mod 8 at small and
// moderate block lengths, so the specialized loops and the assembly tiles
// (which handle any n) all see ragged sizes.
var tileTestSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 34, 63, 64, 65, 66, 127, 128, 129, 130}

// blockTestKernels lists every built-in kernel with non-trivial parameters.
func blockTestKernels() []Kernel {
	return []Kernel{
		Coulomb{},
		Yukawa{Kappa: 0.7},
		Gaussian{Sigma: 1.3},
		Multiquadric{C: 0.4},
		RegularizedCoulomb{Eps: 0.05},
	}
}

// blockTestSources builds a random source block that includes a source
// coincident with the target, exercising the r2 == 0 branch of the
// singular kernels exactly as self-interactions do in the treecode.
func blockTestSources(rng *rand.Rand, n int, tx, ty, tz float64) (sx, sy, sz, q []float64) {
	sx = make([]float64, n)
	sy = make([]float64, n)
	sz = make([]float64, n)
	q = make([]float64, n)
	for j := range sx {
		sx[j] = rng.Float64()*2 - 1
		sy[j] = rng.Float64()*2 - 1
		sz[j] = rng.Float64()*2 - 1
		q[j] = rng.Float64()*2 - 1
	}
	sx[n/2], sy[n/2], sz[n/2] = tx, ty, tz // self term
	return sx, sy, sz, q
}

// tileTestTargets builds n random targets in [-1, 1)^3.
func tileTestTargets(rng *rand.Rand, n int) (tx, ty, tz []float64) {
	tx, ty, tz = make([]float64, n), make([]float64, n), make([]float64, n)
	for t := 0; t < n; t++ {
		tx[t] = rng.Float64()*2 - 1
		ty[t] = rng.Float64()*2 - 1
		tz[t] = rng.Float64()*2 - 1
	}
	return tx, ty, tz
}

// randomPhi builds n nonzero starting potentials, so the tests see the
// tile's single add into a running sum.
func randomPhi(rng *rand.Rand, n int) []float64 {
	phi := make([]float64, n)
	for i := range phi {
		phi[i] = rng.Float64()*2 - 1
	}
	return phi
}

// toF32 rounds coordinates to float32, as the fp32 drivers load targets.
func toF32(x []float64) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		out[i] = float32(v)
	}
	return out
}

// scalarAccum is the reference the Tile contract is defined against:
// per-source interface Eval, accumulated in index order.
func scalarAccum(k Kernel, tx, ty, tz float64, sx, sy, sz, q []float64) float64 {
	var phi float64
	for j := range q {
		phi += k.Eval(tx, ty, tz, sx[j], sy[j], sz[j]) * q[j]
	}
	return phi
}

// scalarAccumF32 is the single-precision reference: per-element rounding
// of the float64 storage, float32 accumulation.
func scalarAccumF32(k F32Kernel, tx, ty, tz float32, sx, sy, sz, q []float64) float32 {
	var phi float32
	for j := range q {
		phi += k.EvalF32(tx, ty, tz, float32(sx[j]), float32(sy[j]), float32(sz[j])) * float32(q[j])
	}
	return phi
}

// ulpDiff64 measures the distance between a and b in units in the last
// place, using the ordered-integer representation of the fp64 line (so the
// distance is exact across exponent boundaries and through zero). Two NaNs
// count as equal.
func ulpDiff64(a, b float64) uint64 {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return 0
	}
	ia, ib := orderedBits64(a), orderedBits64(b)
	if ia > ib {
		return uint64(ia - ib)
	}
	return uint64(ib - ia)
}

func orderedBits64(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

// ulpDiff32 is ulpDiff64 on the float32 line.
func ulpDiff32(a, b float32) uint32 {
	if a == b || (a != a && b != b) {
		return 0
	}
	ia, ib := orderedBits32(a), orderedBits32(b)
	if ia > ib {
		return uint32(ia - ib)
	}
	return uint32(ib - ia)
}

func orderedBits32(f float32) int32 {
	b := int32(math.Float32bits(f))
	if b < 0 {
		b = math.MinInt32 - b
	}
	return b
}

// tileAccumTol converts a per-pairwise-term ULP bound into an absolute
// tolerance for an accumulated n-term block: each term may be off by
// maxULP ulps of itself, each of the n adds may round differently by half
// an ulp of the running sum, and every involved ulp is at most one ulp of
// the block's sum of absolute terms. An exact kernel (maxULP = 0) gets
// tolerance 0, i.e. the `==` contract.
func tileAccumTol(maxULP, n int, absSum float64) float64 {
	if maxULP == 0 {
		return 0
	}
	return float64(maxULP+1) * float64(n) * ulpOf64(absSum)
}

func ulpOf64(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

func tileAccumTol32(maxULP, n int, absSum float32) float32 {
	if maxULP == 0 {
		return 0
	}
	return float32(maxULP+1) * float32(n) * ulpOf32(absSum)
}

func ulpOf32(x float32) float32 {
	x = float32(math.Abs(float64(x)))
	return math.Nextafter32(x, float32(math.Inf(1))) - x
}

// scalarAccumAbs is scalarAccum over |G*q|: the sum of absolute pairwise
// terms that scales the ULP tolerance for transcendental tiles.
func scalarAccumAbs(k Kernel, tx, ty, tz float64, sx, sy, sz, q []float64) float64 {
	var sum float64
	for j := range q {
		sum += math.Abs(k.Eval(tx, ty, tz, sx[j], sy[j], sz[j]) * q[j])
	}
	return sum
}

func scalarAccumAbsF32(k F32Kernel, tx, ty, tz float32, sx, sy, sz, q []float64) float32 {
	var sum float32
	for j := range q {
		t := k.EvalF32(tx, ty, tz, float32(sx[j]), float32(sy[j]), float32(sz[j])) * float32(q[j])
		sum += float32(math.Abs(float64(t)))
	}
	return sum
}

// checkTilePhi compares an accumulated tile against the reference under
// the kernel's accuracy contract: exact bits when maxULP is 0, otherwise
// within the additive ULP tolerance.
func checkTilePhi(t *testing.T, label string, n, maxULP int, got, want, absSum []float64) {
	t.Helper()
	for i := range got {
		if maxULP == 0 {
			if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%s n=%d lane %d: got %v (%x) != want %v (%x)",
					label, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
			continue
		}
		tol := tileAccumTol(maxULP, n, absSum[i])
		if d := math.Abs(got[i] - want[i]); !(d <= tol) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s n=%d lane %d: |%v - %v| = %v exceeds %d-ULP tolerance %v",
				label, n, i, got[i], want[i], d, maxULP, tol)
		}
	}
}

func checkTilePhiF32(t *testing.T, label string, n, maxULP int, got, want, absSum []float32) {
	t.Helper()
	for i := range got {
		if maxULP == 0 {
			if got[i] != want[i] && !(got[i] != got[i] && want[i] != want[i]) {
				t.Fatalf("%s n=%d lane %d: got %v (%x) != want %v (%x)",
					label, n, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
			continue
		}
		tol := tileAccumTol32(maxULP, n, absSum[i])
		if d := float32(math.Abs(float64(got[i] - want[i]))); !(d <= tol) && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s n=%d lane %d: |%v - %v| = %v exceeds %d-ULP tolerance %v",
				label, n, i, got[i], want[i], d, maxULP, tol)
		}
	}
}

// widthULP is the per-width accuracy contract: width-1 tiles are the
// exact Go loops for every kernel, and wider tiles carry the kernel's
// TileMaxULP (0 for exact kernels).
func widthULP(width, maxULP int) int {
	if width == 1 {
		return 0
	}
	return maxULP
}

// checkTiles runs every fp64 tile Tiles(k) resolves on the first Width
// targets, from the starting potentials phi0, and checks each target
// against the scalar reference under the per-width contract. An exact
// width must match phi0 + scalar sum bit for bit. A width under a ULP
// contract is checked in two exact-or-bounded steps, because the bound
// covers the block sum, not the rounding of its add into phi0: from zero,
// the tile's block sum must lie within the ULP tolerance of the scalar
// sum; from phi0, the tile must add exactly that block sum once.
func checkTiles(t *testing.T, label string, k Kernel, tx, ty, tz, sx, sy, sz, q, phi0 []float64) {
	t.Helper()
	for _, s := range Tiles(k) {
		w := s.Width
		name := label + " " + k.Name() + " width " + strconv.Itoa(w)
		sum, absSum := make([]float64, w), make([]float64, w)
		for i := range sum {
			sum[i] = scalarAccum(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
			absSum[i] = scalarAccumAbs(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
		}
		got := append([]float64(nil), phi0[:w]...)
		s.Eval(tx[:w], ty[:w], tz[:w], sx, sy, sz, q, got)
		if maxULP := widthULP(w, TileMaxULP(k)); maxULP > 0 {
			tileSum := make([]float64, w)
			s.Eval(tx[:w], ty[:w], tz[:w], sx, sy, sz, q, tileSum)
			checkTilePhi(t, name+" block sum", len(q), maxULP, tileSum, sum, absSum)
			sum = tileSum
		}
		want := append([]float64(nil), phi0[:w]...)
		for i := range want {
			want[i] += sum[i]
		}
		checkTilePhi(t, name, len(q), 0, got, want, absSum)
	}
}

// checkF32Tiles is checkTiles for the single-precision tiles.
func checkF32Tiles(t *testing.T, label string, k F32Kernel, tx, ty, tz []float32, sx, sy, sz, q []float64, phi0 []float32) {
	t.Helper()
	for _, s := range F32Tiles(k) {
		w := s.Width
		name := label + " " + k.Name() + " fp32 width " + strconv.Itoa(w)
		sum, absSum := make([]float32, w), make([]float32, w)
		for i := range sum {
			sum[i] = scalarAccumF32(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
			absSum[i] = scalarAccumAbsF32(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
		}
		got := append([]float32(nil), phi0[:w]...)
		s.Eval(tx[:w], ty[:w], tz[:w], sx, sy, sz, q, got)
		if maxULP := widthULP(w, F32TileMaxULP(k)); maxULP > 0 {
			tileSum := make([]float32, w)
			s.Eval(tx[:w], ty[:w], tz[:w], sx, sy, sz, q, tileSum)
			checkTilePhiF32(t, name+" block sum", len(q), maxULP, tileSum, sum, absSum)
			sum = tileSum
		}
		want := append([]float32(nil), phi0[:w]...)
		for i := range want {
			want[i] += sum[i]
		}
		checkTilePhiF32(t, name, len(q), 0, got, want, absSum)
	}
}

// widthsOf lists a resolver result's widths.
func widthsOf[T any](tiles []Sized[T]) []int {
	w := make([]int, len(tiles))
	for i, s := range tiles {
		w[i] = s.Width
	}
	return w
}

// customF32 hides a built-in fp32 kernel behind a foreign type, so the
// resolvers cannot recognize it.
type customF32 struct{ F32Kernel }

// inAsmModes runs check with the kernels init() installed and, where
// there is assembly to switch off, again on the pure-Go loops.
func inAsmModes(t *testing.T, check func(label string)) {
	t.Helper()
	check("installed")
	if AsmKernelsAvailable() {
		prev := SetAsmKernels(false)
		defer SetAsmKernels(prev)
		check("pure-go")
	}
}

// tileKinds names the two width-1 tiles the block tests compare: the
// kernel's own and the generic Eval loop.
var tileKinds = [2]string{"specialized", "generic"}

// TestBlockKernelBitIdentical pins the width-1 tiles, the per-target block
// loops every cascade ends at: for every built-in kernel, its own width-1
// tile and the generic width-1 Eval loop kernel.Func resolves to are
// bit-identical to the scalar Eval chain on random blocks of 1 to 200
// sources, for several targets per call, one of them on a source, with
// the assembly installed and switched off.
func TestBlockKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range blockTestKernels() {
		t.Run(k.Name(), func(t *testing.T) {
			inAsmModes(t, func(label string) {
				tiles := Tiles(k)
				one := tiles[len(tiles)-1].Eval
				generic := Tiles(Func{KernelName: k.Name() + "-func", F: k.Eval})[0].Eval
				for trial := 0; trial < 20; trial++ {
					n := 1 + rng.Intn(200)
					tx, ty, tz := tileTestTargets(rng, 3)
					sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
					want := make([]float64, 3)
					for i := range want {
						want[i] = scalarAccum(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
					}
					for i, tile := range []Tile{one, generic} {
						got := make([]float64, 3)
						tile(tx, ty, tz, sx, sy, sz, q, got)
						if !sameBits(got, want) {
							t.Fatalf("%s n=%d: %s width-1 tile %v != scalar %v", label, n, tileKinds[i], got, want)
						}
					}
				}
			})
		})
	}
}

// TestF32BlockKernelBitIdentical is the fp32 analogue for the built-in
// kernels that implement F32Kernel: the specialized width-1 fp32 tile and
// the generic width-1 EvalF32 loop a foreign kernel resolves to are
// bit-identical to the scalar EvalF32 chain.
func TestF32BlockKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, k := range blockTestKernels() {
		f32, ok := k.(F32Kernel)
		if !ok {
			continue
		}
		t.Run(k.Name(), func(t *testing.T) {
			inAsmModes(t, func(label string) {
				tiles := F32Tiles(f32)
				one := tiles[len(tiles)-1].Eval
				generic := F32Tiles(customF32{f32})[0].Eval
				for trial := 0; trial < 20; trial++ {
					n := 1 + rng.Intn(200)
					x, y, z := tileTestTargets(rng, 3)
					tx, ty, tz := toF32(x), toF32(y), toF32(z)
					sx, sy, sz, q := blockTestSources(rng, n, float64(tx[1]), float64(ty[1]), float64(tz[1]))
					want := make([]float32, 3)
					for i := range want {
						want[i] = scalarAccumF32(f32, tx[i], ty[i], tz[i], sx, sy, sz, q)
					}
					for i, tile := range []F32Tile{one, generic} {
						got := make([]float32, 3)
						tile(tx, ty, tz, sx, sy, sz, q, got)
						for l := range got {
							if math.Float32bits(got[l]) != math.Float32bits(want[l]) {
								t.Fatalf("%s n=%d: %s fp32 width-1 tile %v != scalar %v", label, n, tileKinds[i], got, want)
							}
						}
					}
				}
			})
		})
	}
}

// TestAsBlockResolution pins the width-1 end of every resolution: each
// built-in's fp64, fp32 and gradient cascade ends at width 1; kernels the
// resolvers do not recognize — kernel.Func, even one named like a
// built-in, and foreign F32 kernels — resolve the width-1 Eval loop alone;
// and that loop evaluates the kernel it was resolved for, not a built-in
// of the same name.
func TestAsBlockResolution(t *testing.T) {
	inAsmModes(t, func(label string) {
		for _, k := range blockTestKernels() {
			if ts := Tiles(k); ts[len(ts)-1].Width != 1 {
				t.Errorf("%s: Tiles(%s) widths %v do not end at 1", label, k.Name(), widthsOf(ts))
			}
			if f32, ok := k.(F32Kernel); ok {
				if ts := F32Tiles(f32); ts[len(ts)-1].Width != 1 {
					t.Errorf("%s: F32Tiles(%s) widths %v do not end at 1", label, k.Name(), widthsOf(ts))
				}
				if got := widthsOf(F32Tiles(customF32{f32})); !equalInts(got, []int{1}) {
					t.Errorf("%s: F32Tiles(foreign %s) widths %v, want [1]", label, k.Name(), got)
				}
			}
			if gk, ok := k.(GradKernel); ok {
				if ts := GradTiles(gk); ts[len(ts)-1].Width != 1 {
					t.Errorf("%s: GradTiles(%s) widths %v do not end at 1", label, k.Name(), widthsOf(ts))
				}
			}
		}
		twice := func(tx, ty, tz, sx, sy, sz float64) float64 {
			return 2 * Coulomb{}.Eval(tx, ty, tz, sx, sy, sz)
		}
		f := Func{KernelName: Coulomb{}.Name(), F: twice}
		tiles := Tiles(f)
		if got := widthsOf(tiles); !equalInts(got, []int{1}) {
			t.Fatalf("%s: Tiles(Func) widths %v, want [1]", label, got)
		}
		tx, ty, tz := []float64{0.5}, []float64{0}, []float64{0}
		got := []float64{0}
		tiles[0].Eval(tx, ty, tz, []float64{0}, []float64{0}, []float64{0}, []float64{1}, got)
		if got[0] != 4 {
			t.Errorf("%s: Func tile = %v, want 4 from the Func's own F", label, got[0])
		}
	})
}

// TestAsTileResolution pins the widths each kernel resolves, widest first,
// with the assembly installed and switched off: Coulomb 8 → 4 → 1 with
// the assembly and 4 → 1 without, Yukawa 8 → 4 → 1 with the ZMM tile
// (avx512vl) and 4 → 1 without, the other built-ins 4 → 1, every
// built-in F32 kernel 8 → 1, and kernel.Func only 1. It also pins that
// the three ZMM charge kernels (the upward transfer, the chunk's rows and
// the chunk's update) are installed exactly when the assembly is on and
// the CPU has avx512vl. It logs the CPU feature level, every resolved
// width and each charge kernel, so a run's log shows which tiles and
// kernels it exercised: the ZMM tiles and charge kernels run only on
// AVX-512 hosts.
func TestAsTileResolution(t *testing.T) {
	t.Logf("kernel.CPUFeatures() = %q", CPUFeatures())
	inAsmModes(t, func(label string) {
		want := asmOn && CPUFeatures() == "avx512vl"
		for _, c := range []struct {
			name      string
			installed bool
		}{
			{"transfer up", transferUpAsm != nil},
			{"charge rows", chargeRowsAsm != nil},
			{"charge update", chargeUpdateAsm != nil},
		} {
			t.Logf("%s: ZMM %s installed: %v", label, c.name, c.installed)
			if c.installed != want {
				t.Errorf("%s: ZMM %s installed %v, want %v", label, c.name, c.installed, want)
			}
		}
		for _, k := range blockTestKernels() {
			want := []int{4, 1}
			switch k.(type) {
			case Coulomb:
				if coulombTile8Asm != nil {
					want = []int{8, 4, 1}
				}
			case Yukawa:
				if yukawaTile8Asm != nil {
					want = []int{8, 4, 1}
				}
			}
			got := widthsOf(Tiles(k))
			t.Logf("%s: Tiles(%s) widths %v", label, k.Name(), got)
			if !equalInts(got, want) {
				t.Errorf("%s: Tiles(%s) widths %v, want %v", label, k.Name(), got, want)
			}
			fn := Func{KernelName: k.Name() + "-func", F: k.Eval}
			if got := widthsOf(Tiles(fn)); !equalInts(got, []int{1}) {
				t.Errorf("%s: Tiles(Func) widths %v, want [1]", label, got)
			}
			if f32, ok := k.(F32Kernel); ok {
				if got := widthsOf(F32Tiles(f32)); !equalInts(got, []int{8, 1}) {
					t.Errorf("%s: F32Tiles(%s) widths %v, want [8 1]", label, k.Name(), got)
				}
			}
		}
	})
}

// TestTileKernelEmpty verifies that an empty source block leaves the
// accumulated values unchanged (phi[t] += 0 at most) at every resolved
// fp64, fp32 and gradient width, kernel.Func's width-1 loop included.
func TestTileKernelEmpty(t *testing.T) {
	tx := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	ftx := toF32(tx)
	inAsmModes(t, func(label string) {
		for _, k := range blockTestKernels() {
			fn := Func{KernelName: k.Name() + "-func", F: k.Eval}
			for _, s := range append(Tiles(k), Tiles(fn)...) {
				w := s.Width
				phi := []float64{1, 2, 3, 4, 5, 6, 7, 8}[:w]
				s.Eval(tx[:w], tx[:w], tx[:w], nil, nil, nil, nil, phi)
				if !sameBits(phi, []float64{1, 2, 3, 4, 5, 6, 7, 8}[:w]) {
					t.Errorf("%s: %s width-%d empty block changed phi to %v", label, k.Name(), w, phi)
				}
			}
			if f32, ok := k.(F32Kernel); ok {
				for _, s := range F32Tiles(f32) {
					w := s.Width
					phi := []float32{1, 2, 3, 4, 5, 6, 7, 8}[:w]
					s.Eval(ftx[:w], ftx[:w], ftx[:w], nil, nil, nil, nil, phi)
					for i, v := range phi {
						if v != float32(i+1) {
							t.Errorf("%s: %s fp32 width-%d empty block changed phi to %v", label, k.Name(), w, phi)
							break
						}
					}
				}
			}
			if gk, ok := k.(GradKernel); ok {
				for _, s := range GradTiles(gk) {
					w := s.Width
					p := []float64{1, 2, 3, 4}[:w]
					s.Eval(tx[:w], tx[:w], tx[:w], nil, nil, nil, nil, p, p, p, p)
					if !sameBits(p, []float64{1, 2, 3, 4}[:w]) {
						t.Errorf("%s: %s gradient width-%d empty block changed phi to %v", label, k.Name(), w, p)
					}
				}
			}
		}
	})
}

// TestBlockKernelEmpty verifies that the width-1 tiles, the built-ins'
// and kernel.Func's, sum an empty block to zero: from phi = 0, every
// target's potential stays +0.
func TestBlockKernelEmpty(t *testing.T) {
	tx := []float64{0.1, 0.2, 0.3}
	for _, k := range blockTestKernels() {
		fn := Func{KernelName: k.Name() + "-func", F: k.Eval}
		for _, tiles := range [][]Sized[Tile]{Tiles(k), Tiles(fn)} {
			phi := make([]float64, len(tx))
			tiles[len(tiles)-1].Eval(tx, tx, tx, nil, nil, nil, nil, phi)
			if !sameBits(phi, make([]float64, len(tx))) {
				t.Errorf("%s: empty block = %v, want +0", k.Name(), phi)
			}
		}
	}
}

// TestTileKernelBitIdentical verifies the Tile contract for every tile of
// every built-in kernel at ragged sizes, twice: once with whatever loops
// init() installed (assembly on capable hardware) and once forced through
// the pure-Go loops via SetAsmKernels(false). Exact kernels must match the
// scalar reference bit-for-bit at every width — including the single
// phi[t] += add into nonzero starting potentials — as must the generic
// width-1 loop kernel.Func resolves to. Transcendental tiles (the asm
// Yukawa) are held to their pinned TileMaxULP bound instead; with the
// assembly off, TileMaxULP reports 0 and the same code path re-pins the
// Go loops as exact.
func TestTileKernelBitIdentical(t *testing.T) {
	t.Run("installed", func(t *testing.T) { testTileContract(t, 44) })
	t.Run("pure-go", func(t *testing.T) {
		if !AsmKernelsAvailable() {
			t.Skip("no assembly kernels on this machine; installed == pure-go")
		}
		prev := SetAsmKernels(false)
		defer SetAsmKernels(prev)
		testTileContract(t, 44)
	})
}

func testTileContract(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, k := range blockTestKernels() {
		t.Run(k.Name(), func(t *testing.T) {
			fn := Func{KernelName: k.Name() + "-func", F: k.Eval}
			for _, n := range tileTestSizes {
				tx, ty, tz := tileTestTargets(rng, 8)
				// Self terms on targets 1 and 6, so one lane of each
				// 4-lane group exercises the r2 == 0 branch.
				sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
				if n > 1 {
					sx[0], sy[0], sz[0] = tx[6], ty[6], tz[6]
				}
				phi0 := randomPhi(rng, 8)
				checkTiles(t, "specialized", k, tx, ty, tz, sx, sy, sz, q, phi0)
				checkTiles(t, "generic", fn, tx, ty, tz, sx, sy, sz, q, phi0)
			}
		})
	}
}

// TestF32TileKernelBitIdentical is the fp32 analogue for the built-in
// kernels that implement F32Kernel, with the same installed/pure-go
// double pass. Sizes cover every residue mod 4 and mod 8 (tileTestSizes),
// which is the fp32 ragged-tail pin.
func TestF32TileKernelBitIdentical(t *testing.T) {
	t.Run("installed", func(t *testing.T) { testF32TileContract(t, 45) })
	t.Run("pure-go", func(t *testing.T) {
		if !AsmKernelsAvailable() {
			t.Skip("no assembly kernels on this machine; installed == pure-go")
		}
		prev := SetAsmKernels(false)
		defer SetAsmKernels(prev)
		testF32TileContract(t, 45)
	})
}

func testF32TileContract(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, k := range blockTestKernels() {
		f32, ok := k.(F32Kernel)
		if !ok {
			continue
		}
		t.Run(k.Name(), func(t *testing.T) {
			for _, n := range tileTestSizes {
				x, y, z := tileTestTargets(rng, 8)
				tx, ty, tz := toF32(x), toF32(y), toF32(z)
				sx, sy, sz, q := blockTestSources(rng, n, float64(tx[1]), float64(ty[1]), float64(tz[1]))
				phi0 := toF32(randomPhi(rng, 8))
				checkF32Tiles(t, "specialized", f32, tx, ty, tz, sx, sy, sz, q, phi0)
				checkF32Tiles(t, "generic", customF32{f32}, tx, ty, tz, sx, sy, sz, q, phi0)
			}
		})
	}
}

// TestCoulombTile8BitIdentical pins the register-blocked 8-wide Coulomb
// tile against the width-1 loop: bit-identity at every ragged size, self
// terms in both 4-lane groups included — regrouping targets into a wider
// tile must not change any target's accumulation chain. Only Coulomb and
// Yukawa resolve a width-8 fp64 tile, and only with the assembly
// installed; Yukawa's is pinned by TestYukawaTile8MatchesTile4.
func TestCoulombTile8BitIdentical(t *testing.T) {
	for _, k := range blockTestKernels() {
		switch k.(type) {
		case Coulomb, Yukawa:
		default:
			if Tiles(k)[0].Width > 4 {
				t.Fatalf("Tiles(%s) resolved an 8-wide tile; only Coulomb and Yukawa have one", k.Name())
			}
		}
	}
	tiles := Tiles(Coulomb{})
	if tiles[0].Width != 8 {
		t.Skip("no 8-wide Coulomb tile on this machine")
	}
	t8, t1 := tiles[0].Eval, tiles[len(tiles)-1].Eval
	rng := rand.New(rand.NewSource(47))
	for _, n := range tileTestSizes {
		tx, ty, tz := tileTestTargets(rng, 8)
		sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
		if n > 1 {
			sx[0], sy[0], sz[0] = tx[6], ty[6], tz[6]
		}
		phi0 := randomPhi(rng, 8)
		want := append([]float64(nil), phi0...)
		t1(tx, ty, tz, sx, sy, sz, q, want)
		got := append([]float64(nil), phi0...)
		t8(tx, ty, tz, sx, sy, sz, q, got)
		if !sameBits(got, want) {
			t.Fatalf("n=%d: width-8 tile %v != width-1 tile %v", n, got, want)
		}
	}
}

// TestAsmVsGoTiles pins asm-vs-Go equivalence for every vectorized tile
// on the same inputs, via the SetAsmKernels dispatch override: each block
// is evaluated once through the tiles resolved with the assembly
// installed and once through the pure-Go tiles, and the results must
// agree under the kernel's accuracy contract (bit-identical for Coulomb
// fp64/fp32 and for every width-1 tile; within the pinned ULP bound for
// the Yukawa transcendental tiles). A width without a Go tile of its own
// (Coulomb's 8) is compared against the Go width-1 loop.
func TestAsmVsGoTiles(t *testing.T) {
	if !AsmKernelsAvailable() {
		t.Skip("no assembly kernels to compare on this machine")
	}
	rng := rand.New(rand.NewSource(48))
	kernels := []Kernel{Coulomb{}, Yukawa{Kappa: 0.7}, Yukawa{Kappa: 0}}
	for _, n := range tileTestSizes {
		tx, ty, tz := tileTestTargets(rng, 8)
		sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
		phi0 := randomPhi(rng, 8)
		ftx, fty, ftz := toF32(tx), toF32(ty), toF32(tz)
		fphi0 := toF32(randomPhi(rng, 8))

		for _, k := range kernels {
			maxULP := TileMaxULP(k)
			asm := Tiles(k)
			f32k := k.(F32Kernel)
			f32ULP := F32TileMaxULP(f32k)
			fasm := F32Tiles(f32k)
			prev := SetAsmKernels(false)
			goTiles := Tiles(k)
			fgo := F32Tiles(f32k)
			SetAsmKernels(prev)

			goWidth := func(w int) Tile {
				for _, s := range goTiles {
					if s.Width == w {
						return s.Eval
					}
				}
				return goTiles[len(goTiles)-1].Eval
			}
			absSum := make([]float64, 8)
			for i := range absSum {
				absSum[i] = scalarAccumAbs(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
			}
			for _, s := range asm {
				w := s.Width
				got := append([]float64(nil), phi0[:w]...)
				s.Eval(tx[:w], ty[:w], tz[:w], sx, sy, sz, q, got)
				want := append([]float64(nil), phi0[:w]...)
				goWidth(w)(tx[:w], ty[:w], tz[:w], sx, sy, sz, q, want)
				checkTilePhi(t, k.Name()+" asm-vs-go width "+strconv.Itoa(w), n, widthULP(w, maxULP), got, want, absSum[:w])
			}
			fabsSum := make([]float32, 8)
			for i := range fabsSum {
				fabsSum[i] = scalarAccumAbsF32(f32k, ftx[i], fty[i], ftz[i], sx, sy, sz, q)
			}
			for i, s := range fasm {
				w := s.Width
				got := append([]float32(nil), fphi0[:w]...)
				s.Eval(ftx[:w], fty[:w], ftz[:w], sx, sy, sz, q, got)
				want := append([]float32(nil), fphi0[:w]...)
				fgo[i].Eval(ftx[:w], fty[:w], ftz[:w], sx, sy, sz, q, want)
				checkTilePhiF32(t, k.Name()+" asm-vs-go fp32 width "+strconv.Itoa(w), n, widthULP(w, f32ULP), got, want, fabsSum[:w])
			}
		}
	}
}

// TestCoulombTileExtremeMagnitudes sweeps coordinate scales across the
// full binary exponent range, so s = sqrt(r2) runs from the bottom of its
// domain (r2 subnormal) to +Inf overflow. This is the empirical pin for
// the AVX-512 tiles' Newton–Raphson reciprocal and Goldschmidt square
// root being correctly rounded — hence bit-identical to the scalar
// 1/math.Sqrt — at every magnitude, and for the masked s == +Inf lanes
// matching the scalar 1/Inf = +0. Every resolved width is compared with
// the width-1 loop.
func TestCoulombTileExtremeMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	tiles := Tiles(Coulomb{})
	t1 := tiles[len(tiles)-1].Eval
	trials := 40
	if testing.Short() {
		trials = 4
	}
	for scale := -538.0; scale <= 520; scale += 1 {
		mag := math.Ldexp(1, int(scale))
		for trial := 0; trial < trials; trial++ {
			n := 1 + rng.Intn(9)
			tx, ty, tz := tileTestTargets(rng, 8)
			for i := range tx {
				tx[i], ty[i], tz[i] = tx[i]*mag, ty[i]*mag, tz[i]*mag
			}
			sx := make([]float64, n)
			sy := make([]float64, n)
			sz := make([]float64, n)
			q := make([]float64, n)
			for j := range sx {
				sx[j] = (rng.Float64()*2 - 1) * mag
				sy[j] = (rng.Float64()*2 - 1) * mag
				sz[j] = (rng.Float64()*2 - 1) * mag
				q[j] = rng.Float64()*2 - 1
			}
			sx[n/2], sy[n/2], sz[n/2] = tx[0], ty[0], tz[0] // self term

			want := make([]float64, 8)
			t1(tx, ty, tz, sx, sy, sz, q, want)
			for _, s := range tiles[:len(tiles)-1] {
				w := s.Width
				got := make([]float64, w)
				s.Eval(tx[:w], ty[:w], tz[:w], sx, sy, sz, q, got)
				if !sameBits(got, want[:w]) {
					t.Fatalf("scale 2^%g n=%d: width-%d tile %v != width-1 tile %v", scale, n, w, got, want[:w])
				}
			}
		}
	}
}

// TestF32TileExtremeMagnitudes is the fp32 magnitude sweep (the fp32 half
// of the extreme-magnitude pin): coordinate scales span the float32
// exponent range past both ends — r2 subnormal in fp32 at the bottom,
// r2 = +Inf overflow at the top, where both paths must produce g = +0.
// Coulomb must stay bit-identical; Yukawa is held to its fp32 ULP bound.
func TestF32TileExtremeMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	kernels := []F32Kernel{Coulomb{}, Yukawa{Kappa: 0.9}}
	trials := 12
	if testing.Short() {
		trials = 2
	}
	for scale := -70.0; scale <= 70; scale += 1 {
		mag := math.Ldexp(1, int(scale))
		for trial := 0; trial < trials; trial++ {
			n := 1 + rng.Intn(9)
			tx, ty, tz := make([]float32, 8), make([]float32, 8), make([]float32, 8)
			for i := range tx {
				tx[i] = float32((rng.Float64()*2 - 1) * mag)
				ty[i] = float32((rng.Float64()*2 - 1) * mag)
				tz[i] = float32((rng.Float64()*2 - 1) * mag)
			}
			sx := make([]float64, n)
			sy := make([]float64, n)
			sz := make([]float64, n)
			q := make([]float64, n)
			for j := range sx {
				sx[j] = (rng.Float64()*2 - 1) * mag
				sy[j] = (rng.Float64()*2 - 1) * mag
				sz[j] = (rng.Float64()*2 - 1) * mag
				q[j] = rng.Float64()*2 - 1
			}
			sx[n/2], sy[n/2], sz[n/2] = float64(tx[0]), float64(ty[0]), float64(tz[0])

			for _, k := range kernels {
				checkF32Tiles(t, "@2^"+itoa(int(scale)), k, tx, ty, tz, sx, sy, sz, q, make([]float32, 8))
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// TestYukawaTileULPContract is the per-pairwise-term pin for the
// transcendental tiles: over a sweep of kappa and log-spaced distances
// covering the exp argument range from ~-0 down through the underflow
// cutoff, single-source single-term tiles are compared against the scalar
// term in exact ULP distance, which must stay within YukawaTileMaxULP
// (fp64, at every vector width Tiles resolves) and YukawaTileF32MaxULP
// (fp32). This is the measured bound the constants document; if the
// polynomial, the reduction, or the scaling ever drift past it, this test
// fails just as the bit-identity tests fail on a flipped bit. Skipped
// when no vector Yukawa is installed (the Go loops ARE the scalar
// reference).
func TestYukawaTileULPContract(t *testing.T) {
	if yukawaTile4Asm == nil && yukawaF32Tile8Asm == nil {
		t.Skip("no vectorized Yukawa tile on this machine")
	}
	rng := rand.New(rand.NewSource(50))
	kappas := []float64{1e-6, 0.3, 0.7, 2.5, 10, 100, 1500}
	points := 4000
	if testing.Short() {
		points = 400
	}
	q := []float64{1}
	sx, sy, sz := []float64{0}, []float64{0}, []float64{0}
	maxSeen := map[int]uint64{} // by fp64 tile width
	var maxSeen32 uint32
	for _, kappa := range kappas {
		k := Yukawa{Kappa: kappa}
		f8 := F32Tiles(k)[0]
		// Distances such that x = -kappa*r sweeps [-760, -1e-8]: past the
		// underflow cutoff at the bottom (where the clamp and scale
		// rounding must agree with math.Exp's flush to zero / minimum
		// subnormal), to vanishing arguments at the top (exp -> 1).
		lo, hi := 1e-8/kappa, 760/kappa
		step := math.Pow(hi/lo, 1/float64(points-1))
		d := lo
		var r []float64 // the fp64 sweep, on the x axis
		for i := 0; i < points; i += 4 {
			tx := make([]float64, 4)
			for l := range tx {
				// Jitter the mantissa so the sweep isn't phase-locked.
				tx[l] = d * (1 + rng.Float64()*1e-3)
				d *= step
			}
			r = append(r, tx...)
			if yukawaF32Tile8Asm != nil && kappa*float64(float32(d)) < 100 {
				ftx, fty, ftz := make([]float32, 8), make([]float32, 8), make([]float32, 8)
				for l := range ftx {
					ftx[l] = float32(tx[l%4]) * (1 + float32(l/4)*0.25)
				}
				fgot := make([]float32, 8)
				f8.Eval(ftx, fty, ftz, sx, sy, sz, q, fgot)
				for l := range fgot {
					fwant := scalarAccumF32(k, ftx[l], fty[l], ftz[l], sx, sy, sz, q)
					if ud := ulpDiff32(fgot[l], fwant); ud > maxSeen32 {
						maxSeen32 = ud
						if ud > YukawaTileF32MaxULP {
							t.Errorf("kappa=%g r=%g: fp32 tile %v vs scalar %v = %d ulps > %d",
								kappa, ftx[l], fgot[l], fwant, ud, YukawaTileF32MaxULP)
						}
					}
				}
			}
		}
		if yukawaTile4Asm == nil {
			continue
		}
		// Every vector width walks the whole sweep, w targets per call.
		tiles := Tiles(k)
		for _, s := range tiles[:len(tiles)-1] {
			w := s.Width
			zeros := make([]float64, w)
			for i := 0; i+w <= len(r); i += w {
				tx := r[i : i+w]
				got := make([]float64, w)
				s.Eval(tx, zeros, zeros, sx, sy, sz, q, got)
				for l := range got {
					want := scalarAccum(k, tx[l], 0, 0, sx, sy, sz, q)
					if ud := ulpDiff64(got[l], want); ud > maxSeen[w] {
						maxSeen[w] = ud
						if ud > YukawaTileMaxULP {
							t.Errorf("kappa=%g r=%g: fp64 width-%d tile %v vs scalar %v = %d ulps > %d",
								kappa, tx[l], w, got[l], want, ud, YukawaTileMaxULP)
						}
					}
				}
			}
		}
	}
	for w, m := range maxSeen {
		t.Logf("max ULP distance seen: fp64 width %d: %d (bound %d)", w, m, YukawaTileMaxULP)
	}
	t.Logf("max ULP distance seen: fp32 width 8: %d (bound %d)", maxSeen32, YukawaTileF32MaxULP)
}

// checkTile8Split requires tiles' width-8 tile to equal its width-4 tile
// called on targets 0:4 and then on 4:8, bit for bit in every lane, NaN
// payloads included: the cascade's 8 → 4 → 1 then produces exactly the
// bits of 4 → 1.
func checkTile8Split(t *testing.T, label string, tiles []Sized[Tile], tx, ty, tz, sx, sy, sz, q, phi0 []float64) {
	t.Helper()
	if tiles[0].Width != 8 || tiles[1].Width != 4 {
		t.Fatalf("%s: widths %v, want 8 then 4", label, widthsOf(tiles))
	}
	got := append([]float64(nil), phi0[:8]...)
	tiles[0].Eval(tx[:8], ty[:8], tz[:8], sx, sy, sz, q, got)
	want := append([]float64(nil), phi0[:8]...)
	tiles[1].Eval(tx[:4], ty[:4], tz[:4], sx, sy, sz, q, want[:4])
	tiles[1].Eval(tx[4:8], ty[4:8], tz[4:8], sx, sy, sz, q, want[4:])
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d lane %d: width 8 %v (%x) != two width-4 calls %v (%x)",
				label, len(q), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestYukawaTile8MatchesTile4 pins Yukawa's 8-wide tile to two calls of
// its 4-wide tile, bit for bit (checkTile8Split), over: the ULP sweep's
// arguments down to x = -760, where exp is clamped, subnormal or 0; kappa
// 0; r2 == 0 lanes; NaN coordinates on targets and sources; every ragged
// source count of tileTestSizes, from 1; and newFuzzBlock's blocks at
// 2^±540, where squared distances overflow or underflow. Skipped where
// Tiles(Yukawa) has no width 8.
func TestYukawaTile8MatchesTile4(t *testing.T) {
	if Tiles(Yukawa{})[0].Width != 8 {
		t.Skip("no 8-wide Yukawa tile on this machine")
	}
	rng := rand.New(rand.NewSource(51))
	phi0 := randomPhi(rng, 8)
	zero8 := make([]float64, 8)

	// Single sources at the origin, targets on the x axis so that
	// x = -kappa*r sweeps [-760, -1e-8] as in TestYukawaTileULPContract.
	one, origin := []float64{1}, []float64{0}
	for _, kappa := range []float64{1e-6, 0.3, 0.7, 2.5, 10, 100, 1500} {
		tiles := Tiles(Yukawa{Kappa: kappa})
		lo, hi := 1e-8/kappa, 760/kappa
		step := math.Pow(hi/lo, 1/float64(4000-1))
		d := lo
		for i := 0; i < 4000; i += 8 {
			tx := make([]float64, 8)
			for l := range tx {
				tx[l] = d * (1 + rng.Float64()*1e-3)
				d *= step
			}
			checkTile8Split(t, "sweep kappa="+strconv.FormatFloat(kappa, 'g', -1, 64), tiles, tx, zero8, zero8, origin, origin, origin, one, zero8)
		}
	}

	// Ragged blocks with self terms in both 4-lane groups, at kappa 0 and
	// the workloads' 0.5, then NaN coordinates on a target of each group
	// and on one source.
	for _, kappa := range []float64{0, 0.5, 0.7} {
		tiles := Tiles(Yukawa{Kappa: kappa})
		label := "kappa=" + strconv.FormatFloat(kappa, 'g', -1, 64)
		for _, n := range tileTestSizes {
			tx, ty, tz := tileTestTargets(rng, 8)
			sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
			sx[0], sy[0], sz[0] = tx[6], ty[6], tz[6]
			checkTile8Split(t, label, tiles, tx, ty, tz, sx, sy, sz, q, phi0)
			tx[2], tz[5] = math.NaN(), math.NaN()
			checkTile8Split(t, label+" NaN targets", tiles, tx, ty, tz, sx, sy, sz, q, phi0)
			sy[n-1] = math.NaN()
			checkTile8Split(t, label+" NaN source", tiles, tx, ty, tz, sx, sy, sz, q, phi0)
		}
	}

	// newFuzzBlock at 2^±540 and unit scale.
	tiles := Tiles(Yukawa{Kappa: 0.7})
	for seed := int64(1); seed <= 8; seed++ {
		for _, exp := range []int16{-540, -498, 0, 498, 540} {
			b := newFuzzBlock(seed, uint(seed*37), exp, 0)
			checkTile8Split(t, "fuzz block 2^"+itoa(int(exp)), tiles, b.tx, b.ty, b.tz, b.sx, b.sy, b.sz, b.q, b.phi0)
		}
	}
}

// fuzzBlock is one randomized fuzz input: eight targets and a source
// block at unit scale (u*) and scaled by 2^exp (the rest), with
// coincident targets, a source on target 1, sources on random targets and
// duplicated sources, nonzero starting potentials, and the softening eps
// that epsSel picks for the regularized Coulomb kernel, zero included.
type fuzzBlock struct {
	ux, uy, uz, usx, usy, usz []float64
	tx, ty, tz, sx, sy, sz, q []float64
	phi0                      []float64
	eps                       float64
}

func newFuzzBlock(seed int64, size uint, exp int16, epsSel uint8) fuzzBlock {
	n := int(size%256) + 1
	mag := math.Ldexp(1, int(exp%541))
	rng := rand.New(rand.NewSource(seed))
	var b fuzzBlock
	switch epsSel % 4 {
	case 1:
		b.eps = mag / 20
	case 2:
		b.eps = mag * 1e-9
	case 3:
		b.eps = 1
	}
	b.ux, b.uy, b.uz = tileTestTargets(rng, 8)
	b.ux[3], b.uy[3], b.uz[3] = b.ux[rng.Intn(3)], b.uy[rng.Intn(3)], b.uz[rng.Intn(3)] // coincident targets
	b.usx, b.usy, b.usz, b.q = blockTestSources(rng, n, b.ux[1], b.uy[1], b.uz[1])
	for j := range b.usx {
		switch {
		case j == n/2: // the self term blockTestSources placed
		case j > 0 && rng.Intn(8) == 0: // a duplicated source
			b.usx[j], b.usy[j], b.usz[j] = b.usx[j-1], b.usy[j-1], b.usz[j-1]
		case rng.Intn(16) == 0: // on a random target
			i := rng.Intn(8)
			b.usx[j], b.usy[j], b.usz[j] = b.ux[i], b.uy[i], b.uz[i]
		}
	}
	scaled := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * mag
		}
		return out
	}
	b.tx, b.ty, b.tz = scaled(b.ux), scaled(b.uy), scaled(b.uz)
	b.sx, b.sy, b.sz = scaled(b.usx), scaled(b.usy), scaled(b.usz)
	b.phi0 = randomPhi(rng, 8)
	return b
}

// FuzzTileAccum walks every value tile the resolvers return — fp64
// widths 8, 4 and 1 and fp32 widths 8 and 1 — and checks each against the
// scalar Eval or EvalF32 chains on randomized blocks (newFuzzBlock) for
// every built-in kernel, under each kernel's per-width contract: exact
// bits for exact kernels and every width-1 tile, the pinned ULP tolerance
// for transcendental tiles. Yukawa's width 8, where resolved, must also
// equal two width-4 calls bit for bit (checkTile8Split). The fp64 inputs are scaled by 2^exp (exp in
// [-540, 540], about 1e±162, where squared distances underflow or
// overflow); the fp32 inputs stay unscaled, inside float32's range.
func FuzzTileAccum(f *testing.F) {
	f.Add(int64(1), uint(4), int16(0), uint8(1))
	f.Add(int64(2), uint(7), int16(0), uint8(1))
	f.Add(int64(3), uint(129), int16(0), uint8(1))
	f.Add(int64(1), uint(4), int16(0), uint8(0))
	f.Add(int64(2), uint(7), int16(498), uint8(1))    // about 1e150
	f.Add(int64(3), uint(129), int16(-498), uint8(2)) // about 1e-150
	f.Add(int64(4), uint(1), int16(-540), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint, exp int16, epsSel uint8) {
		b := newFuzzBlock(seed, size, exp, epsSel)
		ftx, fty, ftz := toF32(b.ux), toF32(b.uy), toF32(b.uz)
		fphi0 := toF32(b.phi0)
		kernels := blockTestKernels()
		kernels[4] = RegularizedCoulomb{Eps: b.eps}
		for _, k := range kernels {
			checkTiles(t, "fuzz", k, b.tx, b.ty, b.tz, b.sx, b.sy, b.sz, b.q, b.phi0)
			if f32, ok := k.(F32Kernel); ok {
				checkF32Tiles(t, "fuzz", f32, ftx, fty, ftz, b.usx, b.usy, b.usz, b.q, fphi0)
			}
			if _, ok := k.(Yukawa); ok && Tiles(k)[0].Width == 8 {
				checkTile8Split(t, "fuzz", Tiles(k), b.tx, b.ty, b.tz, b.sx, b.sy, b.sz, b.q, b.phi0)
			}
		}
	})
}

// FuzzGradTile checks every gradient tile GradTiles resolves, for every
// built-in gradient kernel, against the per-target EvalGrad chains bit
// for bit on randomized blocks (newFuzzBlock): coincident targets,
// sources on targets and duplicated sources, zero and nonzero softening
// of the regularized Coulomb kernel, and coordinates scaled by 2^exp for
// exp in [-540, 540] (about 1e±162), where squared distances underflow or
// overflow.
func FuzzGradTile(f *testing.F) {
	f.Add(int64(1), uint(4), int16(0), uint8(0))
	f.Add(int64(2), uint(7), int16(498), uint8(1))    // about 1e150
	f.Add(int64(3), uint(129), int16(-498), uint8(2)) // about 1e-150
	f.Add(int64(4), uint(1), int16(-540), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint, exp int16, epsSel uint8) {
		b := newFuzzBlock(seed, size, exp, epsSel)
		for _, k := range append(gradKernels(), RegularizedCoulomb{Eps: b.eps}) {
			for _, gt := range GradTiles(k) {
				checkGradTile(t, "fuzz", k, gt, b.tx, b.ty, b.tz, b.sx, b.sy, b.sz, b.q, b.phi0)
			}
		}
	})
}

// BenchmarkEvalTile compares the resolved tiles against per-target
// width-1 calls over the same 2000-source block — the amortization the
// wide tiles exist to provide — for the Coulomb and Yukawa fp64 paths,
// the 8-wide register-blocked Coulomb tile, the fp32 tiles, and the
// softened-Coulomb gradient tile against four per-target EvalGrad chains.
func BenchmarkEvalTile(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	tx, ty, tz := tileTestTargets(rng, 8)
	sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
	ftx, fty, ftz := toF32(tx), toF32(ty), toF32(tz)
	perTarget := func(b *testing.B, t1 Tile) {
		phi := make([]float64, 4)
		b.SetBytes(4 * n * 8)
		for i := 0; i < b.N; i++ {
			for t := 0; t < 4; t++ {
				t1(tx[t:t+1], ty[t:t+1], tz[t:t+1], sx, sy, sz, q, phi[t:t+1])
			}
		}
	}
	for _, k := range []Kernel{Coulomb{}, Yukawa{Kappa: 0.7}} {
		tiles := Tiles(k)
		b.Run(k.Name()+"/block-x4", func(b *testing.B) { perTarget(b, tiles[len(tiles)-1].Eval) })
		for _, s := range tiles[:len(tiles)-1] {
			s := s
			name := map[int]string{4: "/tile", 8: "/tile8"}[s.Width]
			b.Run(k.Name()+name, func(b *testing.B) {
				phi := make([]float64, s.Width)
				b.SetBytes(int64(s.Width) * n * 8)
				for i := 0; i < b.N; i++ {
					s.Eval(tx[:s.Width], ty[:s.Width], tz[:s.Width], sx, sy, sz, q, phi)
				}
			})
		}
		if f32, ok := k.(F32Kernel); ok {
			t8 := F32Tiles(f32)[0].Eval
			b.Run(k.Name()+"/tile-f32", func(b *testing.B) {
				phi := make([]float32, 8)
				b.SetBytes(8 * n * 8)
				for i := 0; i < b.N; i++ {
					t8(ftx, fty, ftz, sx, sy, sz, q, phi)
				}
			})
		}
	}
	rc := RegularizedCoulomb{Eps: 0.05}
	gts := GradTiles(rc)
	b.Run(rc.Name()+"/grad-x4", func(b *testing.B) {
		t1 := gts[len(gts)-1].Eval
		p, x, y, z := make([]float64, 4), make([]float64, 4), make([]float64, 4), make([]float64, 4)
		b.SetBytes(4 * n * 8)
		for i := 0; i < b.N; i++ {
			for t := 0; t < 4; t++ {
				t1(tx[t:t+1], ty[t:t+1], tz[t:t+1], sx, sy, sz, q, p[t:t+1], x[t:t+1], y[t:t+1], z[t:t+1])
			}
		}
	})
	if gts[0].Width == 4 {
		b.Run(rc.Name()+"/grad-tile", func(b *testing.B) {
			t4 := gts[0].Eval
			p, x, y, z := make([]float64, 4), make([]float64, 4), make([]float64, 4), make([]float64, 4)
			b.SetBytes(4 * n * 8)
			for i := 0; i < b.N; i++ {
				t4(tx[:4], ty[:4], tz[:4], sx, sy, sz, q, p, x, y, z)
			}
		})
	}
}
