package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// tileTestSizes covers every residue mod TileWidth and mod F32TileWidth at
// small and moderate block lengths, so the specialized loops, the AVX
// tiles (which handle any n), and the adapters all see ragged sizes.
var tileTestSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 34, 63, 64, 65, 66, 127, 128, 129, 130}

// tileTestTargets builds a random 4-target tile.
func tileTestTargets(rng *rand.Rand) (tx, ty, tz [TileWidth]float64) {
	for t := 0; t < TileWidth; t++ {
		tx[t] = rng.Float64()*2 - 1
		ty[t] = rng.Float64()*2 - 1
		tz[t] = rng.Float64()*2 - 1
	}
	return
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

// TestTileKernelBitIdentical verifies the TileKernel accuracy contract for
// every built-in kernel at tile-ragged sizes, twice: once with whatever
// loops init() installed (assembly on capable hardware) and once forced
// through the pure-Go fallbacks via SetAsmKernels(false). Exact kernels
// must match the per-target block path, the generic adapter (forced
// through kernel.Func so AsTile cannot return the specialization), and
// the scalar reference bit-for-bit — including the single phi[t] += add
// into a preloaded, nonzero phi tile. Transcendental tiles (the asm
// Yukawa) are held to their pinned TileMaxULP bound instead; with the
// assembly off, TileMaxULP reports 0 and the same code path re-pins the
// Go loops as exact.
func TestTileKernelBitIdentical(t *testing.T) {
	t.Run("installed", func(t *testing.T) { testTileKernelContract(t, 44) })
	t.Run("pure-go", func(t *testing.T) {
		if !AsmKernelsAvailable() {
			t.Skip("no assembly kernels on this machine; installed == pure-go")
		}
		prev := SetAsmKernels(false)
		defer SetAsmKernels(prev)
		testTileKernelContract(t, 44)
	})
}

func testTileKernelContract(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, k := range blockTestKernels() {
		t.Run(k.Name(), func(t *testing.T) {
			tk := AsTile(k)
			if _, ok := k.(TileKernel); !ok {
				t.Fatalf("built-in kernel %s does not implement TileKernel", k.Name())
			}
			maxULP := TileMaxULP(k)
			adapter := AsTile(Func{KernelName: k.Name() + "-func", F: k.Eval})
			bk := AsBlock(k)
			for _, n := range tileTestSizes {
				tx, ty, tz := tileTestTargets(rng)
				// The self term sits on target 1, so one lane exercises
				// the r2 == 0 branch while the others stay regular.
				sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])

				var phi0 [TileWidth]float64
				for t := range phi0 {
					phi0[t] = rng.Float64()*2 - 1
				}
				want := phi0
				var absSum [TileWidth]float64
				for t := 0; t < TileWidth; t++ {
					want[t] += bk.EvalBlockAccum(tx[t], ty[t], tz[t], sx, sy, sz, q)
					absSum[t] = scalarAccumAbs(k, tx[t], ty[t], tz[t], sx, sy, sz, q)
				}
				scalar := phi0
				for t := 0; t < TileWidth; t++ {
					scalar[t] += scalarAccum(k, tx[t], ty[t], tz[t], sx, sy, sz, q)
				}
				if want != scalar {
					t.Fatalf("n=%d: block reference %v != scalar reference %v", n, want, scalar)
				}

				got := phi0
				tk.EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &got)
				checkTilePhi(t, "specialized tile", n, maxULP, got[:], want[:], absSum[:])
				got = phi0
				adapter.EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &got)
				checkTilePhi(t, "adapter tile", n, 0, got[:], want[:], absSum[:])
			}
		})
	}
}

// TestF32TileKernelBitIdentical is the fp32 analogue for the built-in
// kernels that implement F32Kernel, at the eight-lane F32TileWidth and
// with the same installed/pure-go double pass. Sizes cover every residue
// mod 4 and mod 8 (tileTestSizes), which is the fp32 ragged-tail pin: the
// drivers' width-8 main loop plus epilogues must agree with a straight
// per-target reference at every residue.
func TestF32TileKernelBitIdentical(t *testing.T) {
	t.Run("installed", func(t *testing.T) { testF32TileKernelContract(t, 45) })
	t.Run("pure-go", func(t *testing.T) {
		if !AsmKernelsAvailable() {
			t.Skip("no assembly kernels on this machine; installed == pure-go")
		}
		prev := SetAsmKernels(false)
		defer SetAsmKernels(prev)
		testF32TileKernelContract(t, 45)
	})
}

func testF32TileKernelContract(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, k := range blockTestKernels() {
		f32, ok := k.(F32Kernel)
		if !ok {
			continue
		}
		t.Run(k.Name(), func(t *testing.T) {
			tk := AsF32Tile(f32)
			if _, ok := f32.(F32TileKernel); !ok {
				t.Fatalf("built-in F32 kernel %s does not implement F32TileKernel", k.Name())
			}
			maxULP := F32TileMaxULP(f32)
			adapter := f32TileAdapter{f32BlockAdapter{f32}}
			bk := AsF32Block(f32)
			for _, n := range tileTestSizes {
				var tx, ty, tz [F32TileWidth]float32
				for t := 0; t < F32TileWidth; t++ {
					tx[t] = float32(rng.Float64()*2 - 1)
					ty[t] = float32(rng.Float64()*2 - 1)
					tz[t] = float32(rng.Float64()*2 - 1)
				}
				sx, sy, sz, q := blockTestSources(rng, n, float64(tx[1]), float64(ty[1]), float64(tz[1]))

				var phi0 [F32TileWidth]float32
				for t := range phi0 {
					phi0[t] = float32(rng.Float64()*2 - 1)
				}
				want := phi0
				var absSum [F32TileWidth]float32
				for t := 0; t < F32TileWidth; t++ {
					want[t] += bk.EvalBlockAccumF32(tx[t], ty[t], tz[t], sx, sy, sz, q)
					absSum[t] = scalarAccumAbsF32(f32, tx[t], ty[t], tz[t], sx, sy, sz, q)
				}
				scalar := phi0
				for t := 0; t < F32TileWidth; t++ {
					scalar[t] += scalarAccumF32(f32, tx[t], ty[t], tz[t], sx, sy, sz, q)
				}
				if want != scalar {
					t.Fatalf("n=%d: fp32 block reference %v != scalar reference %v", n, want, scalar)
				}

				got := phi0
				tk.EvalTileAccumF32(&tx, &ty, &tz, sx, sy, sz, q, &got)
				checkTilePhiF32(t, "specialized fp32 tile", n, maxULP, got[:], want[:], absSum[:])
				got = phi0
				adapter.EvalTileAccumF32(&tx, &ty, &tz, sx, sy, sz, q, &got)
				checkTilePhiF32(t, "fp32 adapter tile", n, 0, got[:], want[:], absSum[:])
			}
		})
	}
}

// TestCoulombTile8BitIdentical pins the register-blocked 8-wide Coulomb
// tile against the per-target block reference: bit-identity at every
// ragged size, self terms included — regrouping targets into a wider tile
// must not change any target's accumulation chain. Skipped where Tile8
// resolves nil (no assembly); the dispatch rules themselves are pinned
// for all kernels.
func TestCoulombTile8BitIdentical(t *testing.T) {
	for _, k := range blockTestKernels() {
		if _, isCoulomb := k.(Coulomb); !isCoulomb {
			if Tile8(k) != nil {
				t.Fatalf("Tile8(%s) resolved an 8-wide loop; only Coulomb has one", k.Name())
			}
		}
	}
	t8 := Tile8(Coulomb{})
	if t8 == nil {
		t.Skip("no 8-wide Coulomb tile on this machine")
	}
	rng := rand.New(rand.NewSource(47))
	bk := AsBlock(Coulomb{})
	for _, n := range tileTestSizes {
		var tx, ty, tz [Tile8Width]float64
		for i := range tx {
			tx[i] = rng.Float64()*2 - 1
			ty[i] = rng.Float64()*2 - 1
			tz[i] = rng.Float64()*2 - 1
		}
		// Self terms on two lanes, one per 4-lane group.
		sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
		if n > 1 {
			sx[0], sy[0], sz[0] = tx[6], ty[6], tz[6]
		}

		var phi0 [Tile8Width]float64
		for i := range phi0 {
			phi0[i] = rng.Float64()*2 - 1
		}
		want := phi0
		for i := 0; i < Tile8Width; i++ {
			want[i] += bk.EvalBlockAccum(tx[i], ty[i], tz[i], sx, sy, sz, q)
		}
		got := phi0
		t8(&tx, &ty, &tz, sx, sy, sz, q, &got)
		if got != want {
			t.Fatalf("n=%d: tile8 %v != per-target block %v", n, got, want)
		}
	}
}

// TestAsmVsGoTiles pins asm-vs-Go equivalence for every vectorized tile
// on the same inputs, via the SetAsmKernels dispatch override: each block
// is evaluated once with the assembly loops installed and once through
// the pure-Go fallbacks, and the results must agree under the kernel's
// accuracy contract (bit-identical for Coulomb fp64/fp32; within the
// pinned ULP bound for the Yukawa transcendental tiles). Before this
// knob existed the fallback loops were dead code on machines where
// init() installed the assembly.
func TestAsmVsGoTiles(t *testing.T) {
	if !AsmKernelsAvailable() {
		t.Skip("no assembly kernels to compare on this machine")
	}
	rng := rand.New(rand.NewSource(48))
	kernels := []Kernel{Coulomb{}, Yukawa{Kappa: 0.7}, Yukawa{Kappa: 0}}
	for _, n := range tileTestSizes {
		tx, ty, tz := tileTestTargets(rng)
		sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
		var phi0 [TileWidth]float64
		for i := range phi0 {
			phi0[i] = rng.Float64()*2 - 1
		}
		var ftx, fty, ftz [F32TileWidth]float32
		for i := range ftx {
			ftx[i] = float32(rng.Float64()*2 - 1)
			fty[i] = float32(rng.Float64()*2 - 1)
			ftz[i] = float32(rng.Float64()*2 - 1)
		}
		ftx[1], fty[1], ftz[1] = float32(tx[1]), float32(ty[1]), float32(tz[1])
		var fphi0 [F32TileWidth]float32
		for i := range fphi0 {
			fphi0[i] = float32(rng.Float64()*2 - 1)
		}

		var tx8, ty8, tz8, phi80 [Tile8Width]float64
		copy(tx8[:], tx[:])
		copy(ty8[:], ty[:])
		copy(tz8[:], tz[:])
		copy(tx8[4:], tx[:])
		copy(ty8[4:], ty[:])
		copy(tz8[4:], tz[:])
		for i := range phi80 {
			phi80[i] = rng.Float64()*2 - 1
		}

		for _, k := range kernels {
			maxULP := TileMaxULP(k)

			asm := phi0
			AsTile(k).EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &asm)
			asm8 := phi80
			t8 := Tile8(k)
			if t8 != nil {
				t8(&tx8, &ty8, &tz8, sx, sy, sz, q, &asm8)
			}
			fasm := fphi0
			var f32k F32Kernel
			var f32ULP int
			if fk, ok := k.(F32Kernel); ok {
				f32k = fk
				f32ULP = F32TileMaxULP(fk)
				AsF32Tile(fk).EvalTileAccumF32(&ftx, &fty, &ftz, sx, sy, sz, q, &fasm)
			}
			asmBlock := AsBlock(k).EvalBlockAccum(tx[0], ty[0], tz[0], sx, sy, sz, q)

			// Same inputs through the pure-Go loops. The width-8 go
			// reference is the per-target block loop: there is no Go
			// 8-wide tile because regrouping cannot change the chains.
			prev := SetAsmKernels(false)
			goPhi := phi0
			AsTile(k).EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &goPhi)
			go8 := phi80
			bk := AsBlock(k)
			for i := 0; i < Tile8Width; i++ {
				go8[i] += bk.EvalBlockAccum(tx8[i], ty8[i], tz8[i], sx, sy, sz, q)
			}
			fgo := fphi0
			if f32k != nil {
				AsF32Tile(f32k).EvalTileAccumF32(&ftx, &fty, &ftz, sx, sy, sz, q, &fgo)
			}
			goBlock := bk.EvalBlockAccum(tx[0], ty[0], tz[0], sx, sy, sz, q)
			if Tile8(k) != nil {
				t.Errorf("%s: Tile8 still resolves with asm kernels disabled", k.Name())
			}
			SetAsmKernels(prev)

			var absSum [TileWidth]float64
			for i := 0; i < TileWidth; i++ {
				absSum[i] = scalarAccumAbs(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
			}
			checkTilePhi(t, k.Name()+" asm-vs-go tile", n, maxULP, asm[:], goPhi[:], absSum[:])
			if t8 != nil {
				var absSum8 [Tile8Width]float64
				copy(absSum8[:], absSum[:])
				copy(absSum8[4:], absSum[:])
				checkTilePhi(t, k.Name()+" asm-vs-go tile8", n, maxULP, asm8[:], go8[:], absSum8[:])
			}
			if f32k != nil {
				var fabsSum [F32TileWidth]float32
				for i := range fabsSum {
					fabsSum[i] = scalarAccumAbsF32(f32k, ftx[i], fty[i], ftz[i], sx, sy, sz, q)
				}
				checkTilePhiF32(t, k.Name()+" asm-vs-go fp32 tile", n, f32ULP, fasm[:], fgo[:], fabsSum[:])
			}
			if asmBlock != goBlock {
				t.Fatalf("%s n=%d: asm block head %v != go block loop %v", k.Name(), n, asmBlock, goBlock)
			}
		}
	}
}

// TestAsTileResolution pins the dispatch rules: built-ins resolve to
// themselves, foreign kernels to the generic adapter over their block
// path, and resolving an adapter's result again is a no-op.
func TestAsTileResolution(t *testing.T) {
	for _, k := range blockTestKernels() {
		if tk := AsTile(k); tk != k {
			t.Errorf("AsTile(%s) wrapped a kernel that already implements TileKernel", k.Name())
		}
	}
	f := Func{KernelName: "custom", F: Coulomb{}.Eval}
	tk := AsTile(f)
	ad, ok := tk.(tileAdapter)
	if !ok {
		t.Fatalf("AsTile(Func) = %T, want tileAdapter", tk)
	}
	if _, ok := ad.BlockKernel.(blockAdapter); !ok {
		t.Errorf("AsTile(Func) wraps %T, want the blockAdapter fallback", ad.BlockKernel)
	}
	if again, ok := AsTile(tk).(tileAdapter); !ok {
		t.Errorf("AsTile(AsTile(k)) lost the adapter")
	} else if _, double := again.BlockKernel.(tileAdapter); double {
		t.Errorf("AsTile(AsTile(k)) double-wrapped the adapter")
	}
	if tk.Name() != "custom" {
		t.Errorf("adapter name = %q, want custom", tk.Name())
	}
	if Tile8(f) != nil {
		t.Errorf("Tile8(Func) resolved an 8-wide loop for a foreign kernel")
	}
}

// TestTileKernelEmpty verifies the degenerate empty block leaves the
// accumulated values unchanged (phi[t] += 0 at most).
func TestTileKernelEmpty(t *testing.T) {
	tx := [TileWidth]float64{0.1, 0.2, 0.3, 0.4}
	for _, k := range blockTestKernels() {
		phi := [TileWidth]float64{1, 2, 3, 4}
		AsTile(k).EvalTileAccum(&tx, &tx, &tx, nil, nil, nil, nil, &phi)
		if phi != [TileWidth]float64{1, 2, 3, 4} {
			t.Errorf("%s: empty block changed phi to %v", k.Name(), phi)
		}
	}
}

// TestCoulombTileExtremeMagnitudes sweeps coordinate scales across the
// full binary exponent range, so s = sqrt(r2) runs from the bottom of its
// domain (r2 subnormal) to +Inf overflow. This is the empirical pin for
// the AVX-512 tile's Newton–Raphson reciprocal being correctly rounded —
// hence bit-identical to the scalar 1/math.Sqrt — at every magnitude, and
// for the masked s == +Inf lanes matching the scalar 1/Inf = +0.
func TestCoulombTileExtremeMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	tk := AsTile(Coulomb{})
	bk := AsBlock(Coulomb{})
	t8 := Tile8(Coulomb{})
	trials := 40
	if testing.Short() {
		trials = 4
	}
	for scale := -538.0; scale <= 520; scale += 1 {
		mag := math.Ldexp(1, int(scale))
		for trial := 0; trial < trials; trial++ {
			n := 1 + rng.Intn(9)
			var tx, ty, tz [Tile8Width]float64
			for i := range tx {
				tx[i] = (rng.Float64()*2 - 1) * mag
				ty[i] = (rng.Float64()*2 - 1) * mag
				tz[i] = (rng.Float64()*2 - 1) * mag
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

			var want [Tile8Width]float64
			for i := 0; i < Tile8Width; i++ {
				want[i] = bk.EvalBlockAccum(tx[i], ty[i], tz[i], sx, sy, sz, q)
			}
			var got4 [TileWidth]float64
			tx4 := [TileWidth]float64(tx[:4])
			ty4 := [TileWidth]float64(ty[:4])
			tz4 := [TileWidth]float64(tz[:4])
			tk.EvalTileAccum(&tx4, &ty4, &tz4, sx, sy, sz, q, &got4)
			if got4 != [TileWidth]float64(want[:4]) {
				t.Fatalf("scale 2^%g n=%d: tile %v != block %v", scale, n, got4, want[:4])
			}
			if t8 != nil {
				var got8 [Tile8Width]float64
				t8(&tx, &ty, &tz, sx, sy, sz, q, &got8)
				if got8 != want {
					t.Fatalf("scale 2^%g n=%d: tile8 %v != block %v", scale, n, got8, want)
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
			var tx, ty, tz [F32TileWidth]float32
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
				maxULP := F32TileMaxULP(k)
				var want, absSum [F32TileWidth]float32
				for i := 0; i < F32TileWidth; i++ {
					want[i] = scalarAccumF32(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
					absSum[i] = scalarAccumAbsF32(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
				}
				var got [F32TileWidth]float32
				AsF32Tile(k).EvalTileAccumF32(&tx, &ty, &tz, sx, sy, sz, q, &got)
				checkTilePhiF32(t, k.Name()+" fp32 tile @2^"+itoa(int(scale)), n, maxULP, got[:], want[:], absSum[:])
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
// (fp64) and YukawaTileF32MaxULP (fp32). This is the measured bound the
// constants document; if the polynomial, the reduction, or the scaling
// ever drift past it, this test fails just as the bit-identity tests fail
// on a flipped bit. Skipped when no vector Yukawa is installed (the Go
// loops ARE the scalar reference).
func TestYukawaTileULPContract(t *testing.T) {
	if yukawaTileLoop == nil && yukawaTileF32Loop == nil {
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
	var maxSeen uint64
	var maxSeen32 uint32
	for _, kappa := range kappas {
		k := Yukawa{Kappa: kappa}
		// Distances such that x = -kappa*r sweeps [-760, -1e-8]: past the
		// underflow cutoff at the bottom (where the clamp and scale
		// rounding must agree with math.Exp's flush to zero / minimum
		// subnormal), to vanishing arguments at the top (exp -> 1).
		lo, hi := 1e-8/kappa, 760/kappa
		step := math.Pow(hi/lo, 1/float64(points-1))
		d := lo
		for i := 0; i < points; i += TileWidth {
			var tx, ty, tz [TileWidth]float64
			for l := 0; l < TileWidth; l++ {
				// Jitter the mantissa so the sweep isn't phase-locked.
				tx[l] = d * (1 + rng.Float64()*1e-3)
				d *= step
			}
			var want, got, absSum [TileWidth]float64
			for l := 0; l < TileWidth; l++ {
				want[l] = scalarAccum(k, tx[l], ty[l], tz[l], sx, sy, sz, q)
				absSum[l] = math.Abs(want[l])
			}
			if yukawaTileLoop != nil {
				k.EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &got)
				for l := 0; l < TileWidth; l++ {
					if ud := ulpDiff64(got[l], want[l]); ud > maxSeen {
						maxSeen = ud
						if ud > YukawaTileMaxULP {
							t.Errorf("kappa=%g r=%g: fp64 tile %v vs scalar %v = %d ulps > %d",
								kappa, tx[l], got[l], want[l], ud, YukawaTileMaxULP)
						}
					}
				}
			}
			if yukawaTileF32Loop != nil && kappa*float64(float32(d)) < 100 {
				var ftx, fty, ftz, fwant, fgot [F32TileWidth]float32
				for l := 0; l < F32TileWidth; l++ {
					ftx[l] = float32(tx[l%TileWidth]) * (1 + float32(l/TileWidth)*0.25)
					fwant[l] = scalarAccumF32(k, ftx[l], fty[l], ftz[l], sx, sy, sz, q)
				}
				k.EvalTileAccumF32(&ftx, &fty, &ftz, sx, sy, sz, q, &fgot)
				for l := 0; l < F32TileWidth; l++ {
					if ud := ulpDiff32(fgot[l], fwant[l]); ud > maxSeen32 {
						maxSeen32 = ud
						if ud > YukawaTileF32MaxULP {
							t.Errorf("kappa=%g r=%g: fp32 tile %v vs scalar %v = %d ulps > %d",
								kappa, ftx[l], fgot[l], fwant[l], ud, YukawaTileF32MaxULP)
						}
					}
				}
			}
		}
	}
	t.Logf("max ULP distance seen: fp64 %d (bound %d), fp32 %d (bound %d)",
		maxSeen, YukawaTileMaxULP, maxSeen32, YukawaTileF32MaxULP)
}

// FuzzTileAccum cross-checks the specialized tile loops (including the
// assembly tiles on capable hardware) against the per-target scalar
// reference on randomized blocks for every built-in kernel, fp64 and
// fp32, under each kernel's accuracy contract — exact bits for exact
// kernels, the pinned ULP tolerance for transcendental tiles.
func FuzzTileAccum(f *testing.F) {
	f.Add(int64(1), uint(4))
	f.Add(int64(2), uint(7))
	f.Add(int64(3), uint(129))
	f.Fuzz(func(t *testing.T, seed int64, size uint) {
		n := int(size%256) + 1
		rng := rand.New(rand.NewSource(seed))
		tx, ty, tz := tileTestTargets(rng)
		sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
		var phi0 [TileWidth]float64
		for i := range phi0 {
			phi0[i] = rng.Float64()*2 - 1
		}
		var ftx, fty, ftz [F32TileWidth]float32
		for i := range ftx {
			ftx[i] = float32(rng.Float64()*2 - 1)
			fty[i] = float32(rng.Float64()*2 - 1)
			ftz[i] = float32(rng.Float64()*2 - 1)
		}
		ftx[1], fty[1], ftz[1] = float32(tx[1]), float32(ty[1]), float32(tz[1])
		for _, k := range blockTestKernels() {
			maxULP := TileMaxULP(k)
			want := phi0
			var absSum [TileWidth]float64
			for i := 0; i < TileWidth; i++ {
				want[i] += scalarAccum(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
				absSum[i] = scalarAccumAbs(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
			}
			got := phi0
			AsTile(k).EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &got)
			checkTilePhi(t, k.Name()+" tile", n, maxULP, got[:], want[:], absSum[:])
			if t8 := Tile8(k); t8 != nil {
				var tx8, ty8, tz8, phi8, want8, abs8 [Tile8Width]float64
				for i := range tx8 {
					tx8[i] = rng.Float64()*2 - 1
					ty8[i] = rng.Float64()*2 - 1
					tz8[i] = rng.Float64()*2 - 1
					phi8[i] = rng.Float64()*2 - 1
				}
				tx8[5], ty8[5], tz8[5] = tx[1], ty[1], tz[1] // self term, high group
				want8 = phi8
				for i := 0; i < Tile8Width; i++ {
					want8[i] += scalarAccum(k, tx8[i], ty8[i], tz8[i], sx, sy, sz, q)
					abs8[i] = scalarAccumAbs(k, tx8[i], ty8[i], tz8[i], sx, sy, sz, q)
				}
				got8 := phi8
				t8(&tx8, &ty8, &tz8, sx, sy, sz, q, &got8)
				checkTilePhi(t, k.Name()+" tile8", n, maxULP, got8[:], want8[:], abs8[:])
			}
			if f32, ok := k.(F32Kernel); ok {
				f32ULP := F32TileMaxULP(f32)
				var fwant, fgot, fabsSum [F32TileWidth]float32
				for i := range fwant {
					fwant[i] = float32(phi0[i%TileWidth])
				}
				fgot = fwant
				for i := 0; i < F32TileWidth; i++ {
					fwant[i] += scalarAccumF32(f32, ftx[i], fty[i], ftz[i], sx, sy, sz, q)
					fabsSum[i] = scalarAccumAbsF32(f32, ftx[i], fty[i], ftz[i], sx, sy, sz, q)
				}
				AsF32Tile(f32).EvalTileAccumF32(&ftx, &fty, &ftz, sx, sy, sz, q, &fgot)
				checkTilePhiF32(t, k.Name()+" fp32 tile", n, f32ULP, fgot[:], fwant[:], fabsSum[:])
			}
		}
	})
}

// FuzzGradTile checks the gradient tile against four per-target EvalGrad
// chains bit for bit on random tiles and source blocks: coincident
// targets, sources on targets and duplicated sources, zero and nonzero
// softening, and coordinates scaled by 2^exp for exp in [-540, 540]
// (about 1e±162), where squared distances underflow or overflow.
func FuzzGradTile(f *testing.F) {
	f.Add(int64(1), uint(4), int16(0), uint8(0))
	f.Add(int64(2), uint(7), int16(498), uint8(1))    // about 1e150
	f.Add(int64(3), uint(129), int16(-498), uint8(2)) // about 1e-150
	f.Add(int64(4), uint(1), int16(-540), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint, exp int16, epsSel uint8) {
		if GradTile(RegularizedCoulomb{}) == nil {
			t.Skip("no gradient tile on this machine")
		}
		n := int(size%256) + 1
		mag := math.Ldexp(1, int(exp%541))
		rng := rand.New(rand.NewSource(seed))
		var eps float64
		switch epsSel % 4 {
		case 1:
			eps = mag / 20
		case 2:
			eps = mag * 1e-9
		case 3:
			eps = 1
		}
		k := RegularizedCoulomb{Eps: eps}
		var tx, ty, tz, phi0 [TileWidth]float64
		for i := range tx {
			tx[i] = (rng.Float64()*2 - 1) * mag
			ty[i] = (rng.Float64()*2 - 1) * mag
			tz[i] = (rng.Float64()*2 - 1) * mag
			phi0[i] = rng.Float64()*2 - 1
		}
		tx[3], ty[3], tz[3] = tx[rng.Intn(3)], ty[rng.Intn(3)], tz[rng.Intn(3)]
		sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
		for j := range sx {
			switch {
			case j == n/2: // the self term blockTestSources placed
			case j > 0 && rng.Intn(8) == 0: // a duplicated source
				sx[j], sy[j], sz[j] = sx[j-1], sy[j-1], sz[j-1]
			case rng.Intn(16) == 0: // on a random target
				i := rng.Intn(TileWidth)
				sx[j], sy[j], sz[j] = tx[i], ty[i], tz[i]
			default:
				sx[j], sy[j], sz[j] = sx[j]*mag, sy[j]*mag, sz[j]*mag
			}
		}
		checkGradTile(t, "fuzz", k, GradTile(k), &tx, &ty, &tz, sx, sy, sz, q, &phi0)
	})
}

// BenchmarkEvalTile compares tile calls against per-target block calls
// over the same 2000-source block — the amortization the tile path exists
// to provide — for the Coulomb and Yukawa fp64 paths, the 8-wide
// register-blocked Coulomb tile, the fp32 tiles, and the softened-Coulomb
// gradient tile against four per-target EvalGrad chains.
func BenchmarkEvalTile(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	tx, ty, tz := tileTestTargets(rng)
	sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
	var tx8, ty8, tz8 [Tile8Width]float64
	copy(tx8[:], tx[:])
	copy(ty8[:], ty[:])
	copy(tz8[:], tz[:])
	for i := TileWidth; i < Tile8Width; i++ {
		tx8[i] = rng.Float64()*2 - 1
		ty8[i] = rng.Float64()*2 - 1
		tz8[i] = rng.Float64()*2 - 1
	}
	var ftx, fty, ftz [F32TileWidth]float32
	for i := range ftx {
		ftx[i] = float32(tx8[i])
		fty[i] = float32(ty8[i])
		ftz[i] = float32(tz8[i])
	}
	for _, k := range []Kernel{Coulomb{}, Yukawa{Kappa: 0.7}} {
		k := k
		b.Run(k.Name()+"/block-x4", func(b *testing.B) {
			bk := AsBlock(k)
			var phi [TileWidth]float64
			b.SetBytes(4 * n * 8)
			for i := 0; i < b.N; i++ {
				for t := 0; t < TileWidth; t++ {
					phi[t] += bk.EvalBlockAccum(tx[t], ty[t], tz[t], sx, sy, sz, q)
				}
			}
		})
		b.Run(k.Name()+"/tile", func(b *testing.B) {
			tk := AsTile(k)
			var phi [TileWidth]float64
			b.SetBytes(4 * n * 8)
			for i := 0; i < b.N; i++ {
				tk.EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &phi)
			}
		})
		if t8 := Tile8(k); t8 != nil {
			b.Run(k.Name()+"/tile8", func(b *testing.B) {
				var phi [Tile8Width]float64
				b.SetBytes(8 * n * 8)
				for i := 0; i < b.N; i++ {
					t8(&tx8, &ty8, &tz8, sx, sy, sz, q, &phi)
				}
			})
		}
		if f32, ok := k.(F32Kernel); ok {
			b.Run(k.Name()+"/tile-f32", func(b *testing.B) {
				tk := AsF32Tile(f32)
				var phi [F32TileWidth]float32
				b.SetBytes(8 * n * 8)
				for i := 0; i < b.N; i++ {
					tk.EvalTileAccumF32(&ftx, &fty, &ftz, sx, sy, sz, q, &phi)
				}
			})
		}
	}
	rc := RegularizedCoulomb{Eps: 0.05}
	b.Run(rc.Name()+"/grad-x4", func(b *testing.B) {
		var gk GradKernel = rc // the drivers' interface call per interaction
		var phi, gx, gy, gz [TileWidth]float64
		b.SetBytes(4 * n * 8)
		for i := 0; i < b.N; i++ {
			gradChains(gk, &tx, &ty, &tz, sx, sy, sz, q, &phi, &gx, &gy, &gz)
		}
	})
	if gt := GradTile(rc); gt != nil {
		b.Run(rc.Name()+"/grad-tile", func(b *testing.B) {
			var phi, gx, gy, gz [TileWidth]float64
			b.SetBytes(4 * n * 8)
			for i := 0; i < b.N; i++ {
				gt(&tx, &ty, &tz, sx, sy, sz, q, &phi, &gx, &gy, &gz)
			}
		})
	}
}
