package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// gradKernels returns every built-in kernel implementing GradKernel.
func gradKernels() []GradKernel {
	return []GradKernel{
		Coulomb{},
		Yukawa{Kappa: 0.5},
		Yukawa{Kappa: 2},
		Gaussian{Sigma: 0.8},
		Multiquadric{C: 0.7},
		RegularizedCoulomb{Eps: 0.05},
	}
}

func TestEvalGradValueMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range gradKernels() {
		for trial := 0; trial < 50; trial++ {
			tx, ty, tz := rng.Float64(), rng.Float64(), rng.Float64()
			sx, sy, sz := 2+rng.Float64(), rng.Float64(), rng.Float64()
			g, _, _, _ := k.EvalGrad(tx, ty, tz, sx, sy, sz)
			want := k.Eval(tx, ty, tz, sx, sy, sz)
			if math.Abs(g-want) > 1e-14*math.Max(1, math.Abs(want)) {
				t.Errorf("%s: EvalGrad value %g != Eval %g", k.Name(), g, want)
			}
		}
	}
}

func TestEvalGradMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const h = 1e-6
	for _, k := range gradKernels() {
		for trial := 0; trial < 30; trial++ {
			tx, ty, tz := rng.Float64(), rng.Float64(), rng.Float64()
			// Keep the pair well separated so finite differences are
			// well conditioned.
			sx, sy, sz := 2+rng.Float64(), 2+rng.Float64(), rng.Float64()
			_, gx, gy, gz := k.EvalGrad(tx, ty, tz, sx, sy, sz)
			fdx := (k.Eval(tx+h, ty, tz, sx, sy, sz) - k.Eval(tx-h, ty, tz, sx, sy, sz)) / (2 * h)
			fdy := (k.Eval(tx, ty+h, tz, sx, sy, sz) - k.Eval(tx, ty-h, tz, sx, sy, sz)) / (2 * h)
			fdz := (k.Eval(tx, ty, tz+h, sx, sy, sz) - k.Eval(tx, ty, tz-h, sx, sy, sz)) / (2 * h)
			scale := math.Max(1e-6, math.Abs(fdx)+math.Abs(fdy)+math.Abs(fdz))
			if math.Abs(gx-fdx)/scale > 1e-5 || math.Abs(gy-fdy)/scale > 1e-5 || math.Abs(gz-fdz)/scale > 1e-5 {
				t.Errorf("%s: gradient (%g,%g,%g) vs FD (%g,%g,%g)", k.Name(), gx, gy, gz, fdx, fdy, fdz)
			}
		}
	}
}

// TestEvalGradSelfInteractionZero pins the self-interaction convention:
// kernels singular (or, for the multiquadric, non-differentiable) at x = y
// return zeros there — including the softened kernels at zero softening,
// whose formulas give +Inf and NaN at x = y — while the kernels that are
// smooth at x = y keep their finite values.
func TestEvalGradSelfInteractionZero(t *testing.T) {
	singular := []GradKernel{Coulomb{}, Yukawa{Kappa: 0.5}, Yukawa{Kappa: 2}, RegularizedCoulomb{}, Multiquadric{}}
	for _, k := range singular {
		g, gx, gy, gz := k.EvalGrad(1, 2, 3, 1, 2, 3)
		if g != 0 || gx != 0 || gy != 0 || gz != 0 {
			t.Errorf("%s: self interaction gradient nonzero: %g (%g,%g,%g)", k.Name(), g, gx, gy, gz)
		}
		if v := k.Eval(1, 2, 3, 1, 2, 3); v != 0 {
			t.Errorf("%s: self interaction value %g, want 0", k.Name(), v)
		}
	}
	// RegularizedCoulomb's potential paths apply the convention too.
	rc := RegularizedCoulomb{}
	src := []float64{1, 2}
	q := []float64{0.5, 0.25}
	one := []float64{1}
	phi1 := []float64{0}
	rc.tile1(one, one, one, src, src, src, q, phi1)
	if phi1[0] != 0.25/math.Sqrt(3) {
		t.Errorf("regularized-coulomb(0): width-1 tile with a self term = %g, want %g", phi1[0], 0.25/math.Sqrt(3))
	}
	tile := []float64{1, 2, 1, 2}
	phi := make([]float64, 4)
	rc.tile4(tile, tile, tile, src, src, src, q, phi)
	if want := []float64{0.25 / math.Sqrt(3), 0.5 / math.Sqrt(3), 0.25 / math.Sqrt(3), 0.5 / math.Sqrt(3)}; !sameBits(phi, want) {
		t.Errorf("regularized-coulomb(0): width-4 tile with self terms = %v, want %v", phi, want)
	}
	if v := rc.EvalF32(1, 2, 3, 1, 2, 3); v != 0 {
		t.Errorf("regularized-coulomb(0): fp32 self interaction value %g, want 0", v)
	}

	// Smooth at x = y: finite, with the analytic values.
	if g, gx, gy, gz := (Gaussian{Sigma: 0.8}).EvalGrad(1, 2, 3, 1, 2, 3); g != 1 || gx != 0 || gy != 0 || gz != 0 {
		t.Errorf("gaussian: self interaction (%g,%g,%g,%g), want (1,0,0,0)", g, gx, gy, gz)
	}
	if g, gx, gy, gz := (Multiquadric{C: 0.5}).EvalGrad(1, 2, 3, 1, 2, 3); g != 0.5 || gx != 0 || gy != 0 || gz != 0 {
		t.Errorf("multiquadric(0.5): self interaction (%g,%g,%g,%g), want (0.5,0,0,0)", g, gx, gy, gz)
	}
	if g, gx, gy, gz := (RegularizedCoulomb{Eps: 0.5}).EvalGrad(1, 2, 3, 1, 2, 3); g != 2 || gx != 0 || gy != 0 || gz != 0 {
		t.Errorf("regularized-coulomb(0.5): self interaction (%g,%g,%g,%g), want (2,0,0,0)", g, gx, gy, gz)
	}
}

// gradChains is the GradTile contract's reference: per target, four
// EvalGrad chains, each accumulated from +0 in source order and added
// once into the outputs.
func gradChains(k GradKernel, tx, ty, tz, sx, sy, sz, q, phi, gx, gy, gz []float64) {
	for t := range phi {
		var p, x, y, z float64
		for j := range q {
			g, dx, dy, dz := k.EvalGrad(tx[t], ty[t], tz[t], sx[j], sy[j], sz[j])
			p += g * q[j]
			x += dx * q[j]
			y += dy * q[j]
			z += dz * q[j]
		}
		phi[t] += p
		gx[t] += x
		gy[t] += y
		gz[t] += z
	}
}

// sameBits reports whether a and b hold identical bit patterns element by
// element (so NaNs compare, and +0 differs from -0).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkGradTile runs a width-w gradient tile and the reference chains on
// the first w targets from the same seeded outputs and fails on any
// differing bit.
func checkGradTile(t *testing.T, label string, k GradKernel, gt Sized[GradTile], tx, ty, tz, sx, sy, sz, q, seed []float64) {
	t.Helper()
	checkGradTileBy(t, sameBits, label, k, gt, tx, ty, tz, sx, sy, sz, q, seed)
}

// sameValues is sameBits with every NaN equal to every other NaN.
func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// checkGradTileBy is checkGradTile comparing the outputs with same.
func checkGradTileBy(t *testing.T, same func(a, b []float64) bool, label string, k GradKernel, gt Sized[GradTile], tx, ty, tz, sx, sy, sz, q, seed []float64) {
	t.Helper()
	w := gt.Width
	tx, ty, tz = tx[:w], ty[:w], tz[:w]
	out := func() (p, x, y, z []float64) {
		return append([]float64(nil), seed[:w]...), append([]float64(nil), seed[:w]...),
			append([]float64(nil), seed[:w]...), append([]float64(nil), seed[:w]...)
	}
	wp, wx, wy, wz := out()
	gradChains(k, tx, ty, tz, sx, sy, sz, q, wp, wx, wy, wz)
	gp, gx, gy, gz := out()
	gt.Eval(tx, ty, tz, sx, sy, sz, q, gp, gx, gy, gz)
	if !same(gp, wp) || !same(gx, wx) || !same(gy, wy) || !same(gz, wz) {
		t.Fatalf("%s %s width %d n=%d: tile (%v %v %v %v) != chains (%v %v %v %v)",
			label, k.Name(), w, len(q), gp, gx, gy, gz, wp, wx, wy, wz)
	}
}

// TestGradTileBitIdentical pins every gradient tile GradTiles resolves for
// the softened Coulomb kernel to the per-target EvalGrad chains bit for
// bit, at every ragged block length, with self terms and coincident
// targets in both 4-lane halves of eight targets, at zero softening and
// across the binary exponent range (from underflowing to overflowing
// squared distances).
func TestGradTileBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, eps := range []float64{0.05, 0, 1e-3, 3} {
		k := RegularizedCoulomb{Eps: eps}
		for _, gt := range GradTiles(k) {
			for _, n := range tileTestSizes {
				tx, ty, tz := tileTestTargets(rng, 8)
				tx[3], ty[3], tz[3] = tx[2], ty[2], tz[2] // coincident targets
				tx[7], ty[7], tz[7] = tx[4], ty[4], tz[4]
				sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
				if n > 1 {
					sx[0], sy[0], sz[0] = tx[6], ty[6], tz[6] // a self term in the upper half
				}
				seed := randomPhi(rng, 8)
				checkGradTile(t, "ragged", k, gt, tx, ty, tz, sx, sy, sz, q, seed)
			}
		}
	}
	step := 1.0
	if testing.Short() {
		step = 16
	}
	for scale := -540.0; scale <= 540; scale += step {
		mag := math.Ldexp(1, int(scale))
		for _, eps := range []float64{0, mag / 8} {
			k := RegularizedCoulomb{Eps: eps}
			n := 1 + rng.Intn(9)
			tx, ty, tz := tileTestTargets(rng, 8)
			for i := range tx {
				tx[i], ty[i], tz[i] = tx[i]*mag, ty[i]*mag, tz[i]*mag
			}
			sx, sy, sz, q := blockTestSources(rng, n, tx[0], ty[0], tz[0])
			for j := range sx {
				if j != n/2 {
					sx[j], sy[j], sz[j] = sx[j]*mag, sy[j]*mag, sz[j]*mag
				}
			}
			for _, gt := range GradTiles(k) {
				checkGradTile(t, "scale 2^"+itoa(int(scale)), k, gt, tx, ty, tz, sx, sy, sz, q, make([]float64, 8))
			}
		}
	}
}

// TestGradTileD2Range pins every gradient tile GradTiles resolves for the
// softened Coulomb kernel to the EvalGrad chains bit for bit where the
// 8-wide tile switches between its FMA-port quotient and its VDIVPD patch
// (regCoulombGradTile8ZMM): a source's squared distance d2 sweeps the
// exponent range through the fast range [2^-600, 2^600], sits on and two
// ulps either side of both ends of it, is subnormal, underflows to 0,
// overflows to +Inf or is NaN, in blocks of every source count in
// tileTestSizes. Seven targets sit at the origin, so the offset a source
// is placed at sets their d2 exactly; the eighth sits at unit distance.
// A NaN output need only be NaN against the chains, because which NaN a
// Go chain's add keeps depends on the operand order the compiler picks;
// the 8-wide tile must equal two 4-wide calls to the NaN payload
// (checkGradTile8Split). It also visits every binade of the fast range
// with the all-ones significand, (2 - 2^-52)*2^e, where the Newton
// reciprocal falls an ulp short of RN(1/d2) (the case Markstein's
// reciprocal theorem excludes); the quotient must still round correctly.
func TestGradTileD2Range(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	nan := math.NaN()
	var offsets [][3]float64
	for e := -560; e <= 560; e++ { // d2 from underflow to overflow
		s := math.Ldexp(1, e)
		offsets = append(offsets, [3]float64{s * (rng.Float64()*2 - 1), s * (rng.Float64()*2 - 1), s * (rng.Float64()*2 - 1)})
	}
	for _, e := range []int{-300, 300} { // d2 = 2^(2e) and two ulps either side
		for _, f := range []float64{1 - 0x1p-53, 1, 1 + 0x1p-52} {
			offsets = append(offsets, [3]float64{math.Ldexp(f, e), 0, 0}, [3]float64{0, -math.Ldexp(f, e), 0})
		}
	}
	offsets = append(offsets,
		[3]float64{0x1p-520, 0, 0},        // subnormal d2
		[3]float64{0x1p-515, 0x1p-530, 0}, // subnormal d2 from two terms
		[3]float64{0, 0, 0x1p-540},        // d2 underflows to 0
		[3]float64{0x1p512, 0, 0},         // d2 overflows to +Inf
		[3]float64{0x1p300, 0x1p300, 0},   // d2 = 2^601
		[3]float64{nan, 0, 0},             // NaN d2
		[3]float64{0, 0, 0})               // a self term
	fast := func(o [3]float64) bool {
		d2 := o[0]*o[0] + o[1]*o[1] + o[2]*o[2]
		return d2 >= 0x1p-600 && d2 <= 0x1p600
	}
	var inRange [][3]float64
	for _, o := range offsets {
		if fast(o) {
			inRange = append(inRange, o)
		}
	}
	tx, ty, tz := make([]float64, 8), make([]float64, 8), make([]float64, 8)
	tx[7], ty[7], tz[7] = 0.5, 0.25, -0.75
	seed := randomPhi(rng, 8)
	for _, k := range []RegularizedCoulomb{{Eps: 0}, {Eps: 0.05}} {
		tiles := GradTiles(k)
		for _, set := range []struct {
			name string
			offs [][3]float64
		}{{"fast range", inRange}, {"every class", offsets}} {
			for _, n := range tileTestSizes {
				sx, sy, sz, q := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				for lo := 0; lo < len(set.offs); lo += n {
					for j := range q {
						o := set.offs[(lo+j)%len(set.offs)]
						sx[j], sy[j], sz[j], q[j] = -o[0], -o[1], -o[2], rng.Float64()*2-1
					}
					for _, gt := range tiles {
						checkGradTileBy(t, sameValues, set.name, k, gt, tx, ty, tz, sx, sy, sz, q, seed)
					}
					if tiles[0].Width == 8 {
						checkGradTile8Split(t, set.name, tiles, tx, ty, tz, sx, sy, sz, q, seed)
					}
				}
			}
		}
	}

	// d2 = (2 - 2^-52)*2^(2m) from dx = 2^m, dy = (1 - 2^-53)*2^m at
	// Eps = 0, and (2 - 2^-52)*2^(2m+1) from dz = dy and Eps = 2^m: every
	// square and sum is exact.
	one := []float64{1}
	zero8 := make([]float64, 8)
	for m := -300; m < 300; m++ {
		a, b := math.Ldexp(1, m), math.Ldexp(1-0x1p-53, m)
		for _, c := range []struct {
			k  RegularizedCoulomb
			dz float64
		}{{RegularizedCoulomb{}, 0}, {RegularizedCoulomb{Eps: a}, b}} {
			for _, gt := range GradTiles(c.k) {
				checkGradTile(t, "all-ones 2^"+itoa(m), c.k, gt, zero8, zero8, zero8, []float64{-a}, []float64{-b}, []float64{-c.dz}, one, zero8)
			}
		}
	}
}

// regCoulombGradWidths is what GradTiles(RegularizedCoulomb) resolves
// with the assembly switched as it is now: 8 → 4 → 1 on avx512vl, 4 → 1
// with AVX only, and 1 without AVX or with the assembly off.
func regCoulombGradWidths() []int {
	switch {
	case !AsmKernelsAvailable() || !asmOn:
		return []int{1}
	case CPUFeatures() == "avx512vl":
		return []int{8, 4, 1}
	}
	return []int{4, 1}
}

// TestGradTileResolution pins GradTiles' dispatch: every kernel ends with
// a width-1 tile, only RegularizedCoulomb has wider tiles, and its widths
// follow the CPU and the assembly switch (regCoulombGradWidths).
func TestGradTileResolution(t *testing.T) {
	rc := RegularizedCoulomb{Eps: 0.1}
	inAsmModes(t, func(label string) {
		for _, k := range append(gradKernels(), customGrad{rc}) {
			want := []int{1}
			if _, ok := k.(RegularizedCoulomb); ok {
				want = regCoulombGradWidths()
			}
			if got := widthsOf(GradTiles(k)); !equalInts(got, want) {
				t.Errorf("%s: GradTiles(%s) widths %v, want %v", label, k.Name(), got, want)
			}
		}
	})
}

// customGrad hides a built-in gradient kernel behind a foreign type, so
// the resolvers cannot recognize it.
type customGrad struct{ GradKernel }

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGradPointsDownhill(t *testing.T) {
	// For decaying radial kernels the gradient at the target points away
	// from the source (potential decreases with distance).
	for _, k := range []GradKernel{Coulomb{}, Yukawa{Kappa: 0.5}, Gaussian{Sigma: 1}, RegularizedCoulomb{Eps: 0.1}} {
		_, gx, gy, gz := k.EvalGrad(2, 0, 0, 0, 0, 0)
		// Direction target-source is +x; a decaying kernel has d/dx < 0.
		if gx >= 0 || gy != 0 || gz != 0 {
			t.Errorf("%s: gradient (%g,%g,%g) not pointing downhill", k.Name(), gx, gy, gz)
		}
	}
	// Multiquadric grows with r: gradient points along +x.
	_, gx, _, _ := (Multiquadric{C: 1}).EvalGrad(2, 0, 0, 0, 0, 0)
	if gx <= 0 {
		t.Errorf("multiquadric gradient %g should be positive", gx)
	}
}

func TestGradCostExceedsBase(t *testing.T) {
	for _, k := range gradKernels() {
		for _, arch := range []Arch{ArchCPU, ArchGPU} {
			if GradCost(k, arch) <= k.Cost(arch) {
				t.Errorf("%s: grad cost not above base on %v", k.Name(), arch)
			}
		}
	}
}
