package barytree_test

import (
	"math"
	"testing"

	"barytree"
)

func smallParams() barytree.Params {
	return barytree.Params{Theta: 0.7, Degree: 5, LeafSize: 150, BatchSize: 150}
}

func TestSolveMatchesDirectSum(t *testing.T) {
	pts := barytree.UniformCube(3000, 1)
	k := barytree.Coulomb()
	ref := barytree.DirectSum(k, pts, pts)
	phi, err := barytree.Solve(k, pts, pts, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if e := barytree.RelErr2(ref, phi); e > 1e-5 || e == 0 {
		t.Fatalf("error %.3g outside (0, 1e-5]", e)
	}
}

func TestSolveDeviceMatchesCPU(t *testing.T) {
	pts := barytree.UniformCube(3000, 2)
	k := barytree.Yukawa(0.5)
	cpu, err := barytree.SolveCPU(k, pts, pts, smallParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := barytree.SolveDevice(k, pts, pts, smallParams(), barytree.DeviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if e := barytree.RelErr2(cpu.Phi, gpu.Phi); e > 1e-13 {
		t.Fatalf("device deviates from CPU by %.3g", e)
	}
	// No timing assertion here: at 3k particles the GPU's launch overhead
	// dominates and the CPU legitimately wins; the speedup claims are
	// verified at realistic sizes in internal/core and internal/sweep.
}

func TestSolveDistributed(t *testing.T) {
	pts := barytree.UniformCube(4000, 3)
	k := barytree.Coulomb()
	ref := barytree.DirectSum(k, pts, pts)
	res, err := barytree.SolveDistributed(k, pts, smallParams(), barytree.DistributedConfig{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e := barytree.RelErr2(ref, res.Phi); e > 1e-5 {
		t.Fatalf("distributed error %.3g", e)
	}
	if len(res.RankTimes) != 4 {
		t.Fatalf("got %d rank profiles", len(res.RankTimes))
	}
}

func TestCustomKernel(t *testing.T) {
	// Kernel independence: a user-defined kernel goes through the same
	// machinery with no kernel-specific code.
	k := barytree.KernelFunc("inverse-r4", func(tx, ty, tz, sx, sy, sz float64) float64 {
		dx, dy, dz := tx-sx, ty-sy, tz-sz
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 {
			return 0
		}
		return 1 / (r2 * r2)
	}, 0, 0)
	pts := barytree.UniformCube(2000, 4)
	ref := barytree.DirectSum(k, pts, pts)
	phi, err := barytree.Solve(k, pts, pts, barytree.Params{Theta: 0.5, Degree: 8, LeafSize: 100, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if e := barytree.RelErr2(ref, phi); e > 1e-4 || e == 0 {
		t.Fatalf("custom kernel error %.3g", e)
	}
}

// TestZeroSofteningSelfTerms pins the self-interaction convention through
// the public field API: with zero softening, targets that coincide with
// sources get finite fields, not +Inf potentials and NaN gradients.
// RegularizedCoulomb(0) is then the Coulomb kernel — its direct
// potentials are Coulomb's bit for bit, its gradients Coulomb's to
// rounding — and Multiquadric(0) has a zero gradient at its apex.
func TestZeroSofteningSelfTerms(t *testing.T) {
	pts := barytree.NewParticles(3)
	pts.Append(0, 0, 0, 1)
	pts.Append(1, 0, 0, -0.5)
	pts.Append(0, 2, 1, 2)
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-14*math.Max(1, math.Abs(b)) }
	coulomb, err := barytree.DirectField(barytree.Coulomb(), pts, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []barytree.Kernel{barytree.RegularizedCoulomb(0), barytree.Multiquadric(0)} {
		direct, err := barytree.DirectField(k, pts, pts)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := barytree.SolveWithField(k, pts, pts, smallParams())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pts.Len(); i++ {
			for _, f := range [][2]float64{{direct.Phi[i], tree.Phi[i]}, {direct.GX[i], tree.GX[i]},
				{direct.GY[i], tree.GY[i]}, {direct.GZ[i], tree.GZ[i]}} {
				if math.IsNaN(f[0]) || math.IsInf(f[0], 0) || !close(f[1], f[0]) {
					t.Fatalf("%s target %d: direct %g, treecode %g", k.Name(), i, f[0], f[1])
				}
			}
			if k.Name() != "regularized-coulomb" {
				continue
			}
			if direct.Phi[i] != coulomb.Phi[i] || !close(direct.GX[i], coulomb.GX[i]) ||
				!close(direct.GY[i], coulomb.GY[i]) || !close(direct.GZ[i], coulomb.GZ[i]) {
				t.Fatalf("target %d: regularized-coulomb(0) (%g,%g,%g,%g) != coulomb (%g,%g,%g,%g)", i,
					direct.Phi[i], direct.GX[i], direct.GY[i], direct.GZ[i],
					coulomb.Phi[i], coulomb.GX[i], coulomb.GY[i], coulomb.GZ[i])
			}
		}
	}
}

func TestSinglePrecisionDevice(t *testing.T) {
	pts := barytree.UniformCube(2000, 5)
	k := barytree.Coulomb()
	ref := barytree.DirectSum(k, pts, pts)
	p := smallParams()
	fp32, err := barytree.SolveDevice(k, pts, pts, p, barytree.DeviceConfig{SinglePrecision: true})
	if err != nil {
		t.Fatal(err)
	}
	e := barytree.RelErr2(ref, fp32.Phi)
	if e > 1e-3 || e < 1e-9 {
		t.Fatalf("fp32 error %.3g outside single-precision band", e)
	}
	// A kernel without an fp32 path must be rejected.
	custom := barytree.KernelFunc("c", func(a, b, c, d, e, f float64) float64 { return 0 }, 0, 0)
	if _, err := barytree.SolveDevice(custom, pts, pts, p, barytree.DeviceConfig{SinglePrecision: true}); err == nil {
		t.Error("expected error for fp32 with custom kernel")
	}
}

func TestDirectSumAt(t *testing.T) {
	pts := barytree.UniformCube(1000, 6)
	k := barytree.Coulomb()
	full := barytree.DirectSum(k, pts, pts)
	sample := barytree.SampleIndices(1000, 25, 7)
	at := barytree.DirectSumAt(k, pts, sample, pts)
	for i, idx := range sample {
		if at[i] != full[idx] {
			t.Fatalf("sampled direct sum mismatch at %d", idx)
		}
	}
}

func TestGenerators(t *testing.T) {
	if n := barytree.UniformCube(123, 1).Len(); n != 123 {
		t.Errorf("UniformCube len %d", n)
	}
	pl := barytree.PlummerSphere(500, 1, 2)
	if math.Abs(pl.TotalCharge()-1) > 1e-9 {
		t.Errorf("Plummer total mass %g", pl.TotalCharge())
	}
	if n := barytree.GaussianBlob(77, 0.5, 3).Len(); n != 77 {
		t.Errorf("GaussianBlob len %d", n)
	}
}

func TestBadParamsRejected(t *testing.T) {
	pts := barytree.UniformCube(100, 8)
	if _, err := barytree.Solve(barytree.Coulomb(), pts, pts, barytree.Params{Theta: 1.5, Degree: 4, LeafSize: 10, BatchSize: 10}); err == nil {
		t.Error("theta out of range accepted")
	}
	if _, err := barytree.SolveDistributed(barytree.Coulomb(), pts, smallParams(), barytree.DistributedConfig{Ranks: 0}); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestNonUniformDistributions(t *testing.T) {
	k := barytree.RegularizedCoulomb(0.01)
	for name, pts := range map[string]*barytree.Particles{
		"plummer": barytree.PlummerSphere(3000, 1, 9),
		"blob":    barytree.GaussianBlob(3000, 0.4, 10),
	} {
		ref := barytree.DirectSum(k, pts, pts)
		phi, err := barytree.Solve(k, pts, pts, barytree.Params{Theta: 0.6, Degree: 6, LeafSize: 100, BatchSize: 100})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e := barytree.RelErr2(ref, phi); e > 1e-4 {
			t.Errorf("%s: error %.3g", name, e)
		}
	}
}
