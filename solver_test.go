package barytree_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"barytree"
)

func TestSolverMatchesSolve(t *testing.T) {
	pts := barytree.UniformCube(3000, 41)
	k := barytree.Yukawa(0.5)
	p := smallParams()
	want, err := barytree.Solve(k, pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := barytree.NewSolver(k, pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Potentials()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("potential %d: solver %g vs solve %g", i, got[i], want[i])
		}
	}
	if s.NumTargets() != 3000 || s.NumSources() != 3000 {
		t.Errorf("counts %d/%d", s.NumTargets(), s.NumSources())
	}
}

func TestSolverUpdateCharges(t *testing.T) {
	pts := barytree.UniformCube(2500, 42)
	k := barytree.Coulomb()
	p := smallParams()
	s, err := barytree.NewSolver(k, pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Potentials() // warm: charges for original Q

	// New charges; the solver must match a from-scratch solve on a
	// particle set with those charges.
	rng := rand.New(rand.NewSource(43))
	q := make([]float64, pts.Len())
	for i := range q {
		q[i] = 2*rng.Float64() - 1
	}
	got, err := s.MatVec(q)
	if err != nil {
		t.Fatal(err)
	}

	fresh := pts.Clone()
	copy(fresh.Q, q)
	want, err := barytree.Solve(k, fresh, fresh, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("potential %d after charge update: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestSolverLinearity(t *testing.T) {
	// The treecode is linear in the charges: G*(a*q1 + q2) = a*G*q1 + G*q2
	// up to floating-point reassociation. (The barycentric compression is
	// itself linear in q, so this holds to near machine precision.)
	pts := barytree.UniformCube(2000, 44)
	s, err := barytree.NewSolver(barytree.Coulomb(), pts, pts, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	q1 := make([]float64, pts.Len())
	q2 := make([]float64, pts.Len())
	for i := range q1 {
		q1[i] = rng.NormFloat64()
		q2[i] = rng.NormFloat64()
	}
	p1, err := s.MatVec(q1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.MatVec(q2)
	if err != nil {
		t.Fatal(err)
	}
	comb := make([]float64, len(q1))
	for i := range comb {
		comb[i] = 3*q1[i] + q2[i]
	}
	pc, err := s.MatVec(comb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pc {
		want := 3*p1[i] + p2[i]
		scale := abs(want) + 1
		if d := (pc[i] - want) / scale; d > 1e-10 || d < -1e-10 {
			t.Fatalf("linearity violated at %d: %g vs %g", i, pc[i], want)
		}
	}
}

func TestSolverJacobiIterationConverges(t *testing.T) {
	// A miniature "BEM-style" workflow: solve (I + c*G) q = b by Jacobi
	// iteration using the treecode as the matvec. With small c the
	// iteration contracts; convergence exercises repeated charge updates.
	pts := barytree.UniformCube(1500, 46)
	s, err := barytree.NewSolver(barytree.Yukawa(1.0), pts, pts, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	n := pts.Len()
	const c = 1e-4
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	q := append([]float64(nil), b...)
	var residual float64
	for iter := 0; iter < 25; iter++ {
		gq, err := s.MatVec(q)
		if err != nil {
			t.Fatal(err)
		}
		residual = 0
		for i := range q {
			next := b[i] - c*gq[i]
			if d := abs(next - q[i]); d > residual {
				residual = d
			}
			q[i] = next
		}
		if residual < 1e-12 {
			break
		}
	}
	if residual > 1e-10 {
		t.Errorf("Jacobi iteration did not converge: residual %.3g", residual)
	}
}

func TestSolverRejectsWrongChargeCount(t *testing.T) {
	pts := barytree.UniformCube(100, 47)
	s, err := barytree.NewSolver(barytree.Coulomb(), pts, pts, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateCharges(make([]float64, 99)); err == nil {
		t.Error("wrong charge count accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		bad := make([]float64, 100)
		bad[7] = v
		if err := s.UpdateCharges(bad); err == nil || !strings.Contains(err.Error(), "index 7") {
			t.Errorf("UpdateCharges with charge %g: err = %v, want one naming index 7", v, err)
		}
		if _, err := s.MatVec(bad); err == nil || !strings.Contains(err.Error(), "index 7") {
			t.Errorf("MatVec with charge %g: err = %v, want one naming index 7", v, err)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
