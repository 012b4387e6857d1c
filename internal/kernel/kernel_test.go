package kernel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCoulombValues(t *testing.T) {
	k := Coulomb{}
	if got := k.Eval(0, 0, 0, 1, 0, 0); got != 1 {
		t.Errorf("G at distance 1 = %g", got)
	}
	if got := k.Eval(0, 0, 0, 0, 2, 0); got != 0.5 {
		t.Errorf("G at distance 2 = %g", got)
	}
	if got := k.Eval(1, 2, 3, 1, 2, 3); got != 0 {
		t.Errorf("self interaction = %g, want 0", got)
	}
}

func TestYukawaValues(t *testing.T) {
	k := Yukawa{Kappa: 0.5}
	r := 2.0
	want := math.Exp(-0.5*r) / r
	if got := k.Eval(0, 0, 0, 0, 0, r); math.Abs(got-want) > 1e-15 {
		t.Errorf("yukawa at distance 2 = %g, want %g", got, want)
	}
	if got := k.Eval(1, 1, 1, 1, 1, 1); got != 0 {
		t.Errorf("self interaction = %g", got)
	}
	// kappa = 0 degenerates to Coulomb.
	k0 := Yukawa{Kappa: 0}
	c := Coulomb{}
	if got, want := k0.Eval(0, 0, 0, 1, 2, 2), c.Eval(0, 0, 0, 1, 2, 2); math.Abs(got-want) > 1e-15 {
		t.Errorf("kappa=0 yukawa %g != coulomb %g", got, want)
	}
}

func TestYukawaBelowCoulomb(t *testing.T) {
	// Screening always reduces the interaction.
	f := func(x, y, z float64) bool {
		x, y, z = math.Mod(x, 10), math.Mod(y, 10), math.Mod(z, 10)
		if math.IsNaN(x+y+z) || (x == 0 && y == 0 && z == 0) {
			return true
		}
		yk := Yukawa{Kappa: 0.5}.Eval(0, 0, 0, x, y, z)
		cl := Coulomb{}.Eval(0, 0, 0, x, y, z)
		return yk <= cl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKernelSymmetry(t *testing.T) {
	// All provided kernels are radial: G(x,y) = G(y,x).
	kernels := []Kernel{
		Coulomb{}, Yukawa{Kappa: 0.7}, Gaussian{Sigma: 1.2},
		Multiquadric{C: 0.5}, RegularizedCoulomb{Eps: 0.1},
	}
	pts := [][6]float64{
		{0, 0, 0, 1, 2, 3},
		{-1, 0.5, 2, 0.25, -3, 1},
		{5, 5, 5, 5, 5, 6},
	}
	for _, k := range kernels {
		for _, p := range pts {
			a := k.Eval(p[0], p[1], p[2], p[3], p[4], p[5])
			b := k.Eval(p[3], p[4], p[5], p[0], p[1], p[2])
			if a != b {
				t.Errorf("%s not symmetric: %g vs %g", k.Name(), a, b)
			}
		}
	}
}

func TestKernelDecay(t *testing.T) {
	// Decaying kernels must be monotone in distance.
	decaying := []Kernel{Coulomb{}, Yukawa{Kappa: 0.5}, Gaussian{Sigma: 1}, RegularizedCoulomb{Eps: 0.2}}
	for _, k := range decaying {
		prev := math.Inf(1)
		for r := 0.5; r < 16; r *= 2 {
			v := k.Eval(0, 0, 0, r, 0, 0)
			if v >= prev {
				t.Errorf("%s not decaying at r=%g: %g >= %g", k.Name(), r, v, prev)
			}
			if v <= 0 {
				t.Errorf("%s non-positive at r=%g: %g", k.Name(), r, v)
			}
			prev = v
		}
	}
}

func TestYukawaCostRatios(t *testing.T) {
	// The paper observes Yukawa/Coulomb run-time ratios of ~1.8 on the
	// CPU and ~1.5 on the GPU; the cost table must reproduce both.
	c := Coulomb{}
	y := Yukawa{Kappa: 0.5}
	cpuRatio := y.Cost(ArchCPU) / c.Cost(ArchCPU)
	gpuRatio := y.Cost(ArchGPU) / c.Cost(ArchGPU)
	if cpuRatio < 1.6 || cpuRatio > 2.0 {
		t.Errorf("CPU Yukawa/Coulomb cost ratio %.2f outside [1.6, 2.0]", cpuRatio)
	}
	if gpuRatio < 1.3 || gpuRatio > 1.7 {
		t.Errorf("GPU Yukawa/Coulomb cost ratio %.2f outside [1.3, 1.7]", gpuRatio)
	}
	if cpuRatio <= gpuRatio {
		t.Errorf("CPU ratio %.2f should exceed GPU ratio %.2f (exp is relatively cheaper on GPUs)",
			cpuRatio, gpuRatio)
	}
}

func TestAllCostsPositive(t *testing.T) {
	kernels := []Kernel{
		Coulomb{}, Yukawa{Kappa: 0.5}, Gaussian{Sigma: 1},
		Multiquadric{C: 1}, RegularizedCoulomb{Eps: 0.1},
		Func{KernelName: "custom", F: func(a, b, c, d, e, f float64) float64 { return 0 }},
	}
	for _, k := range kernels {
		for _, arch := range []Arch{ArchCPU, ArchGPU} {
			if k.Cost(arch) <= 0 {
				t.Errorf("%s cost on %v is %g", k.Name(), arch, k.Cost(arch))
			}
		}
	}
}

func TestMultiquadricGrowsWithDistance(t *testing.T) {
	k := Multiquadric{C: 1}
	if k.Eval(0, 0, 0, 0, 0, 0) != 1 {
		t.Errorf("mq at 0 = %g, want c = 1", k.Eval(0, 0, 0, 0, 0, 0))
	}
	if k.Eval(0, 0, 0, 3, 0, 0) <= k.Eval(0, 0, 0, 1, 0, 0) {
		t.Error("multiquadric should grow with distance")
	}
}

func TestFuncKernel(t *testing.T) {
	k := Func{
		KernelName: "screened-r2",
		F: func(tx, ty, tz, sx, sy, sz float64) float64 {
			dx, dy, dz := tx-sx, ty-sy, tz-sz
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				return 0
			}
			return 1 / r2
		},
		CPUCost: 15,
		GPUCost: 12,
	}
	if k.Name() != "screened-r2" {
		t.Errorf("name = %q", k.Name())
	}
	if got := k.Eval(0, 0, 0, 2, 0, 0); got != 0.25 {
		t.Errorf("eval = %g", got)
	}
	if k.Cost(ArchCPU) != 15 || k.Cost(ArchGPU) != 12 {
		t.Errorf("costs = %g, %g", k.Cost(ArchCPU), k.Cost(ArchGPU))
	}
	if (Func{KernelName: "d", F: k.F}).Cost(ArchCPU) != 20 {
		t.Error("default cost should be 20")
	}
}

func TestF32MatchesF64Approximately(t *testing.T) {
	f32Kernels := []F32Kernel{Coulomb{}, Yukawa{Kappa: 0.5}, Gaussian{Sigma: 1}, RegularizedCoulomb{Eps: 0.1}}
	for _, k := range f32Kernels {
		for _, r := range []float64{0.25, 1, 3.7} {
			f64 := k.Eval(0, 0, 0, r, 0.1, -0.2)
			f32 := float64(k.EvalF32(0, 0, 0, float32(r), 0.1, -0.2))
			if rel := math.Abs(f64-f32) / math.Max(math.Abs(f64), 1e-30); rel > 1e-5 {
				t.Errorf("%s: f32 deviates by %.3g at r=%g", k.Name(), rel, r)
			}
		}
	}
	// Self interaction still zero in fp32.
	if (Coulomb{}).EvalF32(1, 1, 1, 1, 1, 1) != 0 {
		t.Error("fp32 self interaction nonzero")
	}
}

func TestArchString(t *testing.T) {
	if ArchCPU.String() != "cpu" || ArchGPU.String() != "gpu" {
		t.Errorf("arch strings %q %q", ArchCPU.String(), ArchGPU.String())
	}
}
