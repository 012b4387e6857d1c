package core

import (
	"math"
	"strconv"
	"testing"

	"barytree/internal/device"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
)

// evalDirectTarget computes the potential at one target due to direct
// summation over source particles [cLo, cHi) — the body of one thread block
// of the batch-cluster direct sum kernel (Figure 3b) — through the scalar
// reference path: one interface Eval per pairwise interaction.
func evalDirectTarget(k kernel.Kernel, tg *particle.Set, ti int, src *particle.Set, cLo, cHi int) float64 {
	tx, ty, tz := tg.X[ti], tg.Y[ti], tg.Z[ti]
	var phi float64
	for j := cLo; j < cHi; j++ {
		phi += k.Eval(tx, ty, tz, src.X[j], src.Y[j], src.Z[j]) * src.Q[j]
	}
	return phi
}

// evalApproxTarget computes the potential at one target due to the
// barycentric particle-cluster approximation (equation (11)): a direct sum
// over the cluster's Chebyshev points with modified charges, through the
// scalar reference path.
func evalApproxTarget(k kernel.Kernel, tg *particle.Set, ti int, px, py, pz, qhat []float64) float64 {
	tx, ty, tz := tg.X[ti], tg.Y[ti], tg.Z[ti]
	var phi float64
	for j := range qhat {
		phi += k.Eval(tx, ty, tz, px[j], py[j], pz[j]) * qhat[j]
	}
	return phi
}

// referenceListPhi evaluates every batch's interaction list through the
// per-source scalar reference path (evalDirectTarget/evalApproxTarget) in
// exactly the per-target add order the drivers guarantee, with the plan's
// build-time charges, and returns the potentials in original target order.
func referenceListPhi(pl *Plan, k kernel.Kernel) []float64 {
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	cd := pl.Clusters
	qhat := chargedState(pl, 0).Qhat
	phi := make([]float64, tg.Len())
	for bi := range pl.Batches.Batches {
		b := &pl.Batches.Batches[bi]
		for _, ci := range pl.Lists.Direct[bi] {
			nd := &pl.Sources.Nodes[ci]
			for ti := b.Lo; ti < b.Hi; ti++ {
				phi[ti] += evalDirectTarget(k, tg, ti, src, nd.Lo, nd.Hi)
			}
		}
		for _, ci := range pl.Lists.Approx[bi] {
			for ti := b.Lo; ti < b.Hi; ti++ {
				phi[ti] += evalApproxTarget(k, tg, ti, cd.PX[ci], cd.PY[ci], cd.PZ[ci], qhat[ci])
			}
		}
	}
	out := make([]float64, len(phi))
	pl.Batches.Perm.ScatterInto(out, phi)
	return out
}

// referenceListAbsStats walks the same interaction lists as
// referenceListPhi but returns, per target in original order, the sum of
// |G·q| over every per-source interaction and the interaction count —
// the inputs to the additive tolerance of a tile kernel's measured-ULP
// contract (kernel.TileMaxULP).
func referenceListAbsStats(pl *Plan, k kernel.Kernel) (absSum []float64, count []int) {
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	cd := pl.Clusters
	charges := chargedState(pl, 0).Qhat
	sum := make([]float64, tg.Len())
	n := make([]int, tg.Len())
	for bi := range pl.Batches.Batches {
		b := &pl.Batches.Batches[bi]
		for _, ci := range pl.Lists.Direct[bi] {
			nd := &pl.Sources.Nodes[ci]
			for ti := b.Lo; ti < b.Hi; ti++ {
				for j := nd.Lo; j < nd.Hi; j++ {
					sum[ti] += math.Abs(k.Eval(tg.X[ti], tg.Y[ti], tg.Z[ti], src.X[j], src.Y[j], src.Z[j]) * src.Q[j])
					n[ti]++
				}
			}
		}
		for _, ci := range pl.Lists.Approx[bi] {
			px, py, pz, qhat := cd.PX[ci], cd.PY[ci], cd.PZ[ci], charges[ci]
			for ti := b.Lo; ti < b.Hi; ti++ {
				for j := range qhat {
					sum[ti] += math.Abs(k.Eval(tg.X[ti], tg.Y[ti], tg.Z[ti], px[j], py[j], pz[j]) * qhat[j])
					n[ti]++
				}
			}
		}
	}
	absSum = make([]float64, len(sum))
	count = make([]int, len(n))
	pl.Batches.Perm.ScatterInto(absSum, sum)
	perm := make([]float64, len(n))
	for i, c := range n {
		perm[i] = float64(c)
	}
	out := make([]float64, len(n))
	pl.Batches.Perm.ScatterInto(out, perm)
	for i, c := range out {
		count[i] = int(c)
	}
	return absSum, count
}

// checkSolvePhi compares a full solve against the per-source scalar
// reference under kernel k's tile contract: exact (==) when the resolved
// tile is bit-identical (kernel.TileMaxULP == 0), otherwise within the
// additive tolerance (maxULP+1)·n·ulp(Σ|G·q|) per target — each of the n
// per-source terms may be off by maxULP ulps of the largest magnitude the
// accumulator saw.
func checkSolvePhi(t *testing.T, label string, pl *Plan, k kernel.Kernel, got, want []float64) {
	t.Helper()
	maxULP := kernel.TileMaxULP(k)
	if maxULP == 0 {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s kernel=%s target %d: tiled %v != scalar %v (diff %g)",
					label, k.Name(), i, got[i], want[i], got[i]-want[i])
			}
		}
		return
	}
	absSum, n := referenceListAbsStats(pl, k)
	for i := range want {
		tol := float64(maxULP+1) * float64(n[i]) * (math.Nextafter(absSum[i], math.Inf(1)) - absSum[i])
		if diff := math.Abs(got[i] - want[i]); diff > tol {
			t.Fatalf("%s kernel=%s target %d: tiled %v vs scalar %v, |diff| %g exceeds ULP-contract tolerance %g",
				label, k.Name(), i, got[i], want[i], diff, tol)
		}
	}
}

// TestTiledCPUPathBitIdenticalRagged is the full-solve guarantee for the
// target-tiled compute phase: RunCPU — which cascades each batch's
// targets through the kernel's tiles widest first, down to the width-1
// tile for the ragged tail — matches the per-source scalar reference for
// batch sizes covering every residue mod 8 and for every resolution
// (assembly-backed Coulomb with its 8-wide register-blocked tile,
// assembly Yukawa under its measured-ULP contract, the width-1 Eval loop
// of kernel.Func). The "pure-go" subtest repeats the
// sweep with the assembly kernels switched off, where every kernel —
// Yukawa included — must be bit-identical to the scalar reference.
func TestTiledCPUPathBitIdenticalRagged(t *testing.T) {
	targets := testParticles(t, 2003, 31)
	sources := testParticles(t, 2003, 32)
	kernels := []kernel.Kernel{
		kernel.Coulomb{},
		kernel.Yukawa{Kappa: 0.6},
		kernel.Func{KernelName: "coulomb-func", F: kernel.Coulomb{}.Eval},
	}
	sweep := func(t *testing.T, label string) {
		for _, batch := range []int{57, 58, 59, 60, 61, 62, 63, 64} {
			p := Params{Theta: 0.7, Degree: 3, LeafSize: 90, BatchSize: batch}
			for _, k := range kernels {
				pl, err := NewPlan(targets, sources, p)
				if err != nil {
					t.Fatal(err)
				}
				res := RunCPU(pl, k, CPUOptions{})
				want := referenceListPhi(pl, k)
				checkSolvePhi(t, label+" batch="+strconv.Itoa(batch), pl, k, res.Phi, want)
			}
		}
	}
	t.Run("installed", func(t *testing.T) { sweep(t, "installed") })
	t.Run("pure-go", func(t *testing.T) {
		prev := kernel.SetAsmKernels(false)
		defer kernel.SetAsmKernels(prev)
		sweep(t, "pure-go")
	})
}

// TestDeviceTiledBitIdentical pins the two device-path guarantees of the
// shared cascade. Functionally, the host blocks behind LaunchBlocks
// cascade each launch's targets through the same tiles as the CPU driver
// and add each target's per-launch block total in launch order, exactly
// like the CPU driver's list order, so the device result equals the CPU
// result bit for bit — for the exact Coulomb kernel with its 8-wide tile,
// for Yukawa (the gpu-4rank-32k kernel) whose ULP-contract tile must take
// the same targets on both drivers, and for kernel.Func's width-1 loop —
// at batch sizes covering every residue mod 8, with the assembly on and
// off. For the model, the launch specs are untouched (one modeled thread
// block per target), so the functional run's phase times equal a
// model-only run's exactly.
func TestDeviceTiledBitIdentical(t *testing.T) {
	pts := testParticles(t, 1501, 33)
	kernels := []kernel.Kernel{
		kernel.Coulomb{},
		kernel.Yukawa{Kappa: 0.5},
		kernel.Func{KernelName: "coulomb-func", F: kernel.Coulomb{}.Eval},
	}
	sweep := func(t *testing.T) {
		var tails [8]int
		for _, batch := range []int{120, 121, 122, 123, 124, 125, 126, 127} {
			p := Params{Theta: 0.7, Degree: 4, LeafSize: 150, BatchSize: batch}
			for ki, k := range kernels {
				plCPU, err := NewPlan(pts, pts, p)
				if err != nil {
					t.Fatal(err)
				}
				if ki == 0 {
					for _, b := range plCPU.Batches.Batches {
						tails[(b.Hi-b.Lo)%len(tails)]++
					}
				}
				cpu := RunCPU(plCPU, k, CPUOptions{})

				plDev, err := NewPlan(pts, pts, p)
				if err != nil {
					t.Fatal(err)
				}
				gpu := RunDevice(plDev, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{})
				for i := range cpu.Phi {
					if gpu.Phi[i] != cpu.Phi[i] {
						t.Fatalf("batch=%d kernel=%s target %d: device %v != cpu %v (diff %g)",
							batch, k.Name(), i, gpu.Phi[i], cpu.Phi[i], gpu.Phi[i]-cpu.Phi[i])
					}
				}

				plModel, err := NewPlan(pts, pts, p)
				if err != nil {
					t.Fatal(err)
				}
				model := RunDevice(plModel, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{ModelOnly: true})
				if model.Times != gpu.Times {
					t.Errorf("batch=%d kernel=%s: functional tiled run changed modeled times: %v != model-only %v",
						batch, k.Name(), gpu.Times, model.Times)
				}
			}
		}
		for r, c := range tails {
			if c == 0 {
				t.Fatalf("no batch has %d mod 8 targets (counts %v)", r, tails)
			}
		}
	}
	t.Run("installed", sweep)
	t.Run("pure-go", func(t *testing.T) {
		prev := kernel.SetAsmKernels(false)
		defer kernel.SetAsmKernels(prev)
		sweep(t)
	})
}
