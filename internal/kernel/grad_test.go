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
	if v := rc.EvalBlockAccum(1, 1, 1, src, src, src, q); v != 0.25/math.Sqrt(3) {
		t.Errorf("regularized-coulomb(0): block sum with a self term = %g, want %g", v, 0.25/math.Sqrt(3))
	}
	tile := [TileWidth]float64{1, 2, 1, 2}
	var phi [TileWidth]float64
	rc.EvalTileAccum(&tile, &tile, &tile, src, src, src, q, &phi)
	if want := ([TileWidth]float64{0.25 / math.Sqrt(3), 0.5 / math.Sqrt(3), 0.25 / math.Sqrt(3), 0.5 / math.Sqrt(3)}); phi != want {
		t.Errorf("regularized-coulomb(0): tile with self terms = %v, want %v", phi, want)
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

// gradChains is GradTileFunc's reference: four per-target EvalGrad chains,
// each accumulated from +0 in source order and added once into the
// outputs.
func gradChains(k GradKernel, tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi, gx, gy, gz *[TileWidth]float64) {
	for t := 0; t < TileWidth; t++ {
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

// sameBits4 reports whether a and b hold identical bit patterns lane by
// lane (so NaNs compare, and +0 differs from -0).
func sameBits4(a, b *[TileWidth]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkGradTile runs gt and the reference chains from the same seeded
// outputs and fails on any differing bit.
func checkGradTile(t *testing.T, label string, k RegularizedCoulomb, gt GradTileFunc, tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, seed *[TileWidth]float64) {
	t.Helper()
	wp, wx, wy, wz := *seed, *seed, *seed, *seed
	gradChains(k, tx, ty, tz, sx, sy, sz, q, &wp, &wx, &wy, &wz)
	gp, gx, gy, gz := *seed, *seed, *seed, *seed
	gt(tx, ty, tz, sx, sy, sz, q, &gp, &gx, &gy, &gz)
	if !sameBits4(&gp, &wp) || !sameBits4(&gx, &wx) || !sameBits4(&gy, &wy) || !sameBits4(&gz, &wz) {
		t.Fatalf("%s eps=%g n=%d: tile (%v %v %v %v) != chains (%v %v %v %v)",
			label, k.Eps, len(q), gp, gx, gy, gz, wp, wx, wy, wz)
	}
}

// TestGradTileBitIdentical pins the gradient tile to the per-target
// EvalGrad chains bit for bit, at every ragged block length, with self
// terms, at zero softening and across the binary exponent range (from
// underflowing to overflowing squared distances).
func TestGradTileBitIdentical(t *testing.T) {
	if GradTile(RegularizedCoulomb{}) == nil {
		t.Skip("no gradient tile on this machine")
	}
	rng := rand.New(rand.NewSource(49))
	for _, eps := range []float64{0.05, 0, 1e-3, 3} {
		k := RegularizedCoulomb{Eps: eps}
		gt := GradTile(k)
		for _, n := range tileTestSizes {
			tx, ty, tz := tileTestTargets(rng)
			tx[3], ty[3], tz[3] = tx[2], ty[2], tz[2] // coincident targets
			sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
			var seed [TileWidth]float64
			for i := range seed {
				seed[i] = rng.Float64()*2 - 1
			}
			checkGradTile(t, "ragged", k, gt, &tx, &ty, &tz, sx, sy, sz, q, &seed)
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
			var tx, ty, tz [TileWidth]float64
			for i := range tx {
				tx[i] = (rng.Float64()*2 - 1) * mag
				ty[i] = (rng.Float64()*2 - 1) * mag
				tz[i] = (rng.Float64()*2 - 1) * mag
			}
			sx, sy, sz, q := blockTestSources(rng, n, tx[0], ty[0], tz[0])
			for j := range sx {
				if j != n/2 {
					sx[j], sy[j], sz[j] = sx[j]*mag, sy[j]*mag, sz[j]*mag
				}
			}
			var seed [TileWidth]float64
			checkGradTile(t, "scale 2^"+itoa(int(scale)), k, GradTile(k), &tx, &ty, &tz, sx, sy, sz, q, &seed)
		}
	}
}

// TestGradTileResolution pins GradTile's dispatch: only RegularizedCoulomb
// has a tile, and none resolves with the assembly kernels disabled.
func TestGradTileResolution(t *testing.T) {
	for _, k := range []Kernel{Coulomb{}, Yukawa{Kappa: 0.5}, Gaussian{Sigma: 1}, Multiquadric{C: 1}, InversePower{P: 2},
		Func{KernelName: "custom", F: RegularizedCoulomb{}.Eval}} {
		if GradTile(k) != nil {
			t.Errorf("GradTile(%s) resolved a tile", k.Name())
		}
	}
	if AsmKernelsAvailable() && GradTile(RegularizedCoulomb{Eps: 0.1}) == nil {
		t.Errorf("GradTile(regularized-coulomb) is nil with the assembly kernels on")
	}
	prev := SetAsmKernels(false)
	defer SetAsmKernels(prev)
	if GradTile(RegularizedCoulomb{Eps: 0.1}) != nil {
		t.Errorf("GradTile(regularized-coulomb) resolved with the assembly kernels off")
	}
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
