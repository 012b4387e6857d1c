package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"barytree/internal/chebyshev"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/tree"
)

// referenceCharges is the textbook implementation of the two charge passes
// (equations (14) and (15)) with per-particle allocations, kept in the test
// as the semantic reference for the allocation-free production pass. It
// charges every node from its particles. Where the product of a particle's
// three denominators leaves [2^-900, 2^900] it divides each row by its own
// denominator instead, the range guard chargeNode documents, so it stays
// finite on boxes whose sides lie far from 1.
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
			den := dx * dy * dz
			qt[j] = src.Q[p] / den
			if a := math.Abs(den); !(a >= 0x1p-900 && a <= 0x1p900) {
				for k := 0; k < m; k++ {
					tx[j][k] /= dx
					ty[j][k] /= dy
					tz[j][k] /= dz
				}
				qt[j] = src.Q[p]
			}
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

// chargeErrorBounds returns, for each node of t that cd charges from its
// children, a bound on |charged - referenceCharges| at any of the node's
// points in units of u*S, where u = 2^-53 and S is the sum of |q| over the
// node's particles. Nodes charged from their particles get 0: they must
// match the reference exactly. The bound is first order in u, derived as
// follows, not fitted to a measurement.
//
// Let L_k be a node's 3D basis (a product of 1D ones), Q_k = sum_p
// L_k(x_p) q_p its exact modified charges, and Λ = (2/π)ln(n+1) + 1, which
// bounds the 1D Lebesgue function λ(x) = sum_k |L_k(x)| of the degree-n
// Chebyshev points on the node's interval (Trefethen, Approximation Theory
// and Approximation Practice, Thm 15.2). So |L_k(x)| <= λ(x) <= Λ, and the
// 3D sum over k of |L_k(x)| is at most Λ^3.
//
//  1. One particle term. t_k = w_k/(x-s_k) is rounded twice. The
//     denominator d = sum_k t_k adds n roundings, which its cancellation
//     magnifies by sum|t_k|/|d| = λ(x), so d is good to (n+2)Λu. With the
//     three products and the division by the denominators (or by each
//     row's own, beyond 2^±900), a term L_k1(x) L_k2(y) L_k3(z) q carries
//     relative error ηu, η = 3(n+2)Λ + 12.
//  2. A node of N particles charged from them (the reference, and
//     chargeNode) sums N such terms: |Q^_k - Q_k| <= (N-1+η)u sum_p
//     |L_k(x_p) q_p| <= (N-1+η)Λ^3 uS. The same bounds the error's 1-norm
//     over k, since sum_k |L_k(x_p)| <= Λ^3.
//  3. A parent P charged from its children C: Q^P = sum_C A_C^T Q^C
//     exactly, with A_C = A_x⊗A_y⊗A_z and A_d[j][k] = L^P_k(s^C_j). The
//     child points lie in P's box, so each row of A_C sums in absolute
//     value to at most Λ^3, and A_C^T grows an error's 1-norm by at most
//     Λ^3. Each entry of A_d (BasisAt) carries (n+2)Λ + 4 roundings. Each
//     term of the three (n+1)-term contractions, summed over c <= 8
//     children, then carries at most β = 3((n+2)Λ+4) + 2(n+1) + 8(n+1)
//     relative to its size, and sum_k sum_j |A_jk Q^C_j| <= Λ^3 ||Q^C||_1
//     <= Λ^6 S_C. So the error 1-norms obey E(P) <= Λ^3 sum_C E(C) +
//     βΛ^6 uS_P.
//  4. By induction on P's height h above its particle-charged frontier,
//     whose largest node holds N_f particles: E(P) <= [Λ^3h (N_f-1+η) Λ^3
//     + βΛ^6 (Λ^3h - 1)/(Λ^3 - 1)] uS_P, which also bounds each point's
//     error.
//  5. The difference from the reference is at most that plus the
//     reference's own error, step 2 with N the node's count.
func chargeErrorBounds(cd *ClusterData, t *tree.Tree) []float64 {
	n := float64(cd.Degree)
	lam := 2/math.Pi*math.Log(n+1) + 1
	l3 := lam * lam * lam
	eta := 3*(n+2)*lam + 12
	beta := 3*((n+2)*lam+4) + 10*(n+1)
	height := make([]int, len(t.Nodes))
	frontier := make([]int, len(t.Nodes)) // N_f
	bound := make([]float64, len(t.Nodes))
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		nd := &t.Nodes[i]
		if !cd.fromChildren(nd) {
			frontier[i] = nd.Count()
			continue
		}
		for _, c := range nd.Children {
			height[i] = max(height[i], height[c]+1)
			frontier[i] = max(frontier[i], frontier[c])
		}
		lh := math.Pow(l3, float64(height[i]))
		bound[i] = lh*(float64(frontier[i])-1+eta)*l3 + beta*l3*l3*(lh-1)/(l3-1) +
			(float64(nd.Count())-1+eta)*l3
	}
	return bound
}

// checkChargesNearReference fails unless every node's modified charges
// equal (==) referenceCharges where cd charges the node from its
// particles, and lie within chargeErrorBounds where it charges the node
// from its children. It returns the largest error seen, in units of u*S.
func checkChargesNearReference(t *testing.T, cd *ClusterData, tr *tree.Tree, qhat [][]float64, what string) float64 {
	t.Helper()
	want := referenceCharges(cd, tr)
	bound := chargeErrorBounds(cd, tr)
	var worst float64
	for ni, nd := range tr.Nodes {
		var s float64
		for _, q := range tr.Particles.Q[nd.Lo:nd.Hi] {
			s += math.Abs(q)
		}
		unit := 0x1p-53 * s
		for b, v := range qhat[ni] {
			d := math.Abs(v - want[ni][b])
			if bound[ni] == 0 {
				if v != want[ni][b] {
					t.Fatalf("%s: node %d point %d, charged from its particles: qhat = %v, want %v", what, ni, b, v, want[ni][b])
				}
				continue
			}
			if !(d <= bound[ni]*unit) {
				t.Fatalf("%s: node %d point %d, charged from its children: |qhat - reference| = %g u*S, bound %g u*S",
					what, ni, b, d/unit, bound[ni])
			}
			if unit > 0 {
				worst = max(worst, d/unit)
			}
		}
	}
	return worst
}

// TestComputeChargesMatchesReference verifies the flat-scratch charge pass
// (ChargeState.Compute) against the allocating reference at several
// degrees, on midpoint and Morton trees: bit-identical where a node is
// charged from its particles, within the derived chargeErrorBounds where
// it is charged from its children. Serial and parallel passes, with the
// assembly kernels installed and switched off, must all agree exactly
// (scratch reuse across clusters must not leak state between them, and
// the ZMM rows, update and transfer must give the Go loops' bits).
func TestComputeChargesMatchesReference(t *testing.T) {
	src := testParticles(t, 4000, 17)
	mort, _ := tree.BuildMortonWorkers(src, 60, 0)
	for _, tc := range []struct {
		name string
		tr   *tree.Tree
	}{{"midpoint", tree.Build(src, 60)}, {"morton", mort}} {
		for _, degree := range []int{2, 4, 6, 8, 10} {
			pl := &Plan{Sources: tc.tr, Clusters: NewClusterData(tc.tr, degree)}
			upward := 0
			for i := range tc.tr.Nodes {
				if pl.Clusters.fromChildren(&tc.tr.Nodes[i]) {
					upward++
				}
			}
			if upward == 0 {
				t.Fatalf("%s n=%d: no node is charged from its children", tc.name, degree)
			}
			what := fmt.Sprintf("%s n=%d", tc.name, degree)
			st := chargedState(pl, 1)
			asmModes(func(label string) {
				for _, workers := range []int{1, 3, 0} {
					par := chargedState(pl, workers)
					for ni := range par.Qhat {
						wantExact(t, par.Qhat[ni], st.Qhat[ni], fmt.Sprintf("%s %s workers=%d node %d", what, label, workers, ni))
					}
				}
			})
			worst := checkChargesNearReference(t, pl.Clusters, tc.tr, st.Qhat, what)
			t.Logf("%s: %d of %d nodes charged from their children, worst error %.3g u*S",
				what, upward, len(tc.tr.Nodes), worst)
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

// chargeFuzzScales are the per-axis coordinate scales FuzzChargePass
// mixes: 1e150 and 1e-150 push a particle's denominator product past
// chargeNode's 2^±900 guard, and 1e104 on every axis makes it subnormal.
var chargeFuzzScales = [4]float64{1, 1e150, 1e-150, 1e104}

// FuzzChargePass drives the charge pass through adversarial geometry: N
// from 1 to 600 with leaf sizes from 1 to N, or, when leafRaw's top bit
// is set, leaf sizes one below, at and one above one and two
// kernel.ChargeChunk (so leaves end just short of, on and just past a
// chunk boundary), degrees 1 to 12, midpoint or Morton trees, and
// shape%5 keeping the uniform cube (0) or making the
// points coincident (1), collinear on a tilted line (2), planar on z = 0
// (3) or snapped to a half-unit lattice (4), where child boxes collapse
// grid axes to one point. Axis d is scaled by chargeFuzzScales[scales>>(2d)&3].
// Every charge must be finite; the full pass must be == at 1, 2 and 4
// workers, at 2 and 4 also with the assembly kernels switched off (the
// Go rows, update and transfer loops), and within chargeErrorBounds of
// the reference; and a
// pass under a random mask must charge the mask's closure with the full
// pass's bits.
func FuzzChargePass(f *testing.F) {
	f.Add(int64(1), uint16(400), uint16(20), uint8(5), uint8(0), uint8(0))
	f.Add(int64(2), uint16(599), uint16(9), uint8(9), uint8(5), uint8(0))
	f.Add(int64(3), uint16(300), uint16(3), uint8(3), uint8(4), uint8(0b100100))
	f.Add(int64(4), uint16(200), uint16(0), uint8(1), uint8(1), uint8(0))
	f.Add(int64(5), uint16(500), uint16(30), uint8(6), uint8(2), uint8(0b010101))
	f.Add(int64(6), uint16(450), uint16(12), uint8(7), uint8(8), uint8(0b101010))
	f.Add(int64(7), uint16(350), uint16(40), uint8(4), uint8(3), uint8(0b111111))
	f.Add(int64(8), uint16(250), uint16(5), uint8(2), uint8(9), uint8(0b011001))
	f.Add(int64(9), uint16(500), uint16(0x8000), uint8(6), uint8(0), uint8(0))
	f.Add(int64(10), uint16(400), uint16(0x8004), uint8(8), uint8(5), uint8(0))
	f.Add(int64(11), uint16(300), uint16(0x8002), uint8(11), uint8(3), uint8(0b010000))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, leafRaw uint16, degRaw, shape, scales uint8) {
		n := int(nRaw%600) + 1
		leaf := int(leafRaw)%n + 1
		if leafRaw&0x8000 != 0 {
			leaf = kernel.ChargeChunk*(1+int(leafRaw%2)) + int(leafRaw/2%3) - 1
		}
		degree := int(degRaw%12) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := particle.UniformCube(n, rng)
		for i := range pts.X {
			switch shape % 5 {
			case 1:
				pts.X[i], pts.Y[i], pts.Z[i] = pts.X[0], pts.Y[0], pts.Z[0]
			case 2:
				pts.Y[i], pts.Z[i] = 2*pts.X[i], -pts.X[i]
			case 3:
				pts.Z[i] = 0
			case 4:
				pts.X[i] = math.Round(2*pts.X[i]) / 2
				pts.Y[i] = math.Round(2*pts.Y[i]) / 2
				pts.Z[i] = math.Round(2*pts.Z[i]) / 2
			}
			pts.X[i] *= chargeFuzzScales[scales&3]
			pts.Y[i] *= chargeFuzzScales[scales>>2&3]
			pts.Z[i] *= chargeFuzzScales[scales>>4&3]
		}
		tr := tree.Build(pts, leaf)
		if shape/5%2 == 1 {
			tr, _ = tree.BuildMortonWorkers(pts, leaf, 1)
		}
		pl := &Plan{Sources: tr, Clusters: NewClusterData(tr, degree)}
		full := chargedState(pl, 1)
		for ni, qh := range full.Qhat {
			for b, v := range qh {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("node %d point %d: modified charge %g", ni, b, v)
				}
			}
		}
		asmModes(func(label string) {
			for _, w := range []int{2, 4} {
				st := chargedState(pl, w)
				for ni := range st.Qhat {
					wantExact(t, st.Qhat[ni], full.Qhat[ni], fmt.Sprintf("%s workers=%d node %d", label, w, ni))
				}
			}
		})
		checkChargesNearReference(t, pl.Clusters, tr, full.Qhat, "full pass")

		need := make([]bool, len(tr.Nodes))
		for i := range need {
			need[i] = rng.Intn(4) == 0
		}
		closure := chargeClosure(pl.Clusters, tr, need)
		masked := nanState(pl)
		masked.chargeNodes(pl, need, 2)
		for ni, c := range masked.charged {
			if c != closure[ni] {
				t.Fatalf("node %d: charged %v, in the mask's closure %v", ni, c, closure[ni])
			}
			if c {
				wantExact(t, masked.Qhat[ni], full.Qhat[ni], fmt.Sprintf("masked node %d", ni))
			}
		}
	})
}
