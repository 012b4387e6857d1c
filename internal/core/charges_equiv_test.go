package core

import (
	"math"
	"testing"

	"barytree/internal/chebyshev"
	"barytree/internal/kernel"
	"barytree/internal/tree"
)

// referenceCharges is the textbook implementation of the two charge passes
// (equations (14) and (15)) with per-particle allocations, kept in the test
// as the semantic reference for the allocation-free production pass.
func referenceCharges(cd *ClusterData, t *tree.Tree) [][]float64 {
	m := cd.Degree + 1
	factors1D := func(g chebyshev.Grid1D, x float64) ([]float64, float64) {
		tv := make([]float64, m)
		var d float64
		for k := range tv {
			diff := x - g.Points[k]
			if math.Abs(diff) <= chebyshev.SingularityTol {
				for i := range tv {
					tv[i] = 0
				}
				tv[k] = 1
				return tv, 1
			}
			tv[k] = g.Weights[k] / diff
			d += tv[k]
		}
		return tv, d
	}
	out := make([][]float64, len(t.Nodes))
	src := t.Particles
	for ni := range t.Nodes {
		nd := &t.Nodes[ni]
		g := cd.Grids[ni]
		nc := nd.Count()
		tx := make([][]float64, nc)
		ty := make([][]float64, nc)
		tz := make([][]float64, nc)
		qt := make([]float64, nc)
		for j := 0; j < nc; j++ {
			p := nd.Lo + j
			var dx, dy, dz float64
			tx[j], dx = factors1D(g.Dims[0], src.X[p])
			ty[j], dy = factors1D(g.Dims[1], src.Y[p])
			tz[j], dz = factors1D(g.Dims[2], src.Z[p])
			qt[j] = src.Q[p] / (dx * dy * dz)
		}
		np := g.NumPoints()
		qhat := make([]float64, np)
		for b := 0; b < np; b++ {
			k3 := b % m
			k2 := (b / m) % m
			k1 := b / (m * m)
			var sum float64
			for j := 0; j < nc; j++ {
				sum += tx[j][k1] * ty[j][k2] * tz[j][k3] * qt[j]
			}
			qhat[b] = sum
		}
		out[ni] = qhat
	}
	return out
}

// TestComputeChargesMatchesReference verifies the flat-scratch charge pass
// (ChargeState.Compute) is bit-identical to the allocating reference, for
// serial and parallel worker counts (scratch reuse across clusters must
// not leak state between them).
func TestComputeChargesMatchesReference(t *testing.T) {
	src := testParticles(t, 4000, 17)
	tr := tree.Build(src, 60)
	for _, workers := range []int{1, 3, 0} {
		pl := &Plan{Sources: tr, Clusters: NewClusterData(tr, 4)}
		st := chargedState(pl, workers)
		want := referenceCharges(pl.Clusters, tr)
		for ni := range tr.Nodes {
			if len(st.Qhat[ni]) != len(want[ni]) {
				t.Fatalf("workers=%d node %d: qhat length %d, want %d",
					workers, ni, len(st.Qhat[ni]), len(want[ni]))
			}
			for b, v := range st.Qhat[ni] {
				if v != want[ni][b] {
					t.Fatalf("workers=%d node %d point %d: qhat = %v, want %v (diff %g)",
						workers, ni, b, v, want[ni][b], v-want[ni][b])
				}
			}
		}
	}
}

// TestBlockPathBitIdenticalToScalar is the end-to-end devirtualization
// guarantee: running the full treecode through a built-in kernel (which
// resolves to its specialized block loops) produces bit-identical
// potentials to the same kernel hidden behind kernel.Func (which resolves
// to the generic adapter, the per-source scalar loop). The one exception
// is a kernel whose installed assembly tile carries a measured-ULP
// contract instead of bit-identity (Yukawa's vectorized exp): there the
// installed run is checked against the contract's tolerance, and an extra
// pass with the assembly kernels switched off pins that the pure-Go
// specialization is still exactly bit-identical.
func TestBlockPathBitIdenticalToScalar(t *testing.T) {
	targets := testParticles(t, 3000, 5)
	sources := testParticles(t, 3000, 6)
	p := Params{Theta: 0.7, Degree: 4, LeafSize: 100, BatchSize: 64}
	for _, k := range []kernel.Kernel{
		kernel.Coulomb{},
		kernel.Yukawa{Kappa: 0.5},
		kernel.Gaussian{Sigma: 1.1},
		kernel.Multiquadric{C: 0.3},
		kernel.RegularizedCoulomb{Eps: 0.02},
	} {
		t.Run(k.Name(), func(t *testing.T) {
			run := func() (*Plan, *Result, *Result) {
				pl, err := NewPlan(targets, sources, p)
				if err != nil {
					t.Fatal(err)
				}
				fast := RunCPU(pl, k, CPUOptions{})

				pl2, err := NewPlan(targets, sources, p)
				if err != nil {
					t.Fatal(err)
				}
				wrapped := kernel.Func{KernelName: k.Name() + "-scalar", F: k.Eval}
				slow := RunCPU(pl2, wrapped, CPUOptions{})
				return pl, fast, slow
			}

			pl, fast, slow := run()
			checkSolvePhi(t, "installed", pl, k, fast.Phi, slow.Phi)

			if kernel.TileMaxULP(k) != 0 {
				// The installed tile is only ULP-close; re-pin exactness
				// on the pure-Go specialization.
				prev := kernel.SetAsmKernels(false)
				defer kernel.SetAsmKernels(prev)
				_, fast, slow = run()
				checkSolvePhi(t, "pure-go", pl, k, fast.Phi, slow.Phi)
			}
		})
	}
}
