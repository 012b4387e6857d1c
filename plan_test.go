package barytree_test

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"barytree"
)

// TestPlanSolveMatchesSolve pins the Plan reuse contract: solving through a
// cached Plan is byte-identical (exact ==) to the one-shot Solve for the
// same geometry, charges and kernel, for several kernels on one plan.
func TestPlanSolveMatchesSolve(t *testing.T) {
	pts := barytree.UniformCube(3000, 61)
	p := smallParams()
	pl, err := barytree.NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumTargets() != 3000 || pl.NumSources() != 3000 {
		t.Fatalf("counts %d/%d", pl.NumTargets(), pl.NumSources())
	}
	for _, k := range []barytree.Kernel{barytree.Coulomb(), barytree.Yukawa(0.5)} {
		want, err := barytree.Solve(k, pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.Solve(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: potential %d: plan %g vs solve %g", k.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestPlanSolveWithCharges pins the charge-replacement path: Plan.Solve
// with explicit charges equals a from-scratch Solve on a particle set
// carrying those charges, exactly.
func TestPlanSolveWithCharges(t *testing.T) {
	pts := barytree.UniformCube(2500, 62)
	p := smallParams()
	k := barytree.Coulomb()
	pl, err := barytree.NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	q := make([]float64, pts.Len())
	for i := range q {
		q[i] = 2*rng.Float64() - 1
	}
	got, err := pl.Solve(k, q)
	if err != nil {
		t.Fatal(err)
	}
	mod := pts.Clone()
	copy(mod.Q, q)
	want, err := barytree.Solve(k, mod, mod, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("potential %d: plan %g vs solve %g", i, got[i], want[i])
		}
	}
	if _, err := pl.Solve(k, q[:10]); err == nil {
		t.Fatal("wrong charge count accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		bad := append([]float64(nil), q...)
		bad[7] = v
		if _, err := pl.Solve(k, bad); err == nil || !strings.Contains(err.Error(), "index 7") {
			t.Fatalf("Solve with charge %g: err = %v, want one naming index 7", v, err)
		}
		if _, err := pl.SolveWithField(k, bad); err == nil || !strings.Contains(err.Error(), "index 7") {
			t.Fatalf("SolveWithField with charge %g: err = %v, want one naming index 7", v, err)
		}
	}
}

// TestPlanSolveConcurrent shares one Plan across goroutines, each solving
// with its own charge vector, and checks every result bit-for-bit against
// a serial Plan.Solve with the same charges. Run under -race this is the
// immutability proof of the shared plan.
func TestPlanSolveConcurrent(t *testing.T) {
	pts := barytree.UniformCube(2000, 64)
	p := smallParams()
	k := barytree.Yukawa(0.25)
	pl, err := barytree.NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	charges := make([][]float64, goroutines)
	want := make([][]float64, goroutines)
	for g := range charges {
		rng := rand.New(rand.NewSource(int64(100 + g)))
		q := make([]float64, pts.Len())
		for i := range q {
			q[i] = 2*rng.Float64() - 1
		}
		charges[g] = q
		w, err := pl.Solve(k, q)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = w
	}
	var wg sync.WaitGroup
	errs := make([]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := pl.Solve(k, charges[g])
			if err != nil {
				errs[g] = err.Error()
				return
			}
			for i := range got {
				if got[i] != want[g][i] {
					errs[g] = "mismatch"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Fatalf("goroutine %d: %s", g, e)
		}
	}
}

// TestSolverFromPlanSharesPlan builds two independent Solvers on one Plan
// and checks they iterate independently with exact agreement against
// Plan.Solve.
func TestSolverFromPlanSharesPlan(t *testing.T) {
	pts := barytree.UniformCube(2000, 65)
	p := smallParams()
	k := barytree.Coulomb()
	pl, err := barytree.NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	s1 := barytree.NewSolverFromPlan(k, pl)
	s2 := barytree.NewSolverFromPlan(k, pl)
	if s1.Plan() != pl || s2.Plan() != pl {
		t.Fatal("solvers do not share the plan")
	}
	rng := rand.New(rand.NewSource(66))
	q1 := make([]float64, pts.Len())
	q2 := make([]float64, pts.Len())
	for i := range q1 {
		q1[i] = 2*rng.Float64() - 1
		q2[i] = 2*rng.Float64() - 1
	}
	got1, err := s1.MatVec(q1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := s2.MatVec(q2)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := pl.Solve(k, q1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := pl.Solve(k, q2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want1 {
		if got1[i] != want1[i] || got2[i] != want2[i] {
			t.Fatalf("solver-from-plan mismatch at %d", i)
		}
	}
	// s1's state must be unaffected by s2's iteration: repeat without update.
	again := s1.Potentials()
	for i := range want1 {
		if again[i] != want1[i] {
			t.Fatalf("solver state perturbed by sibling at %d", i)
		}
	}
}

// TestPlanSolveWithFieldMatchesOneShot pins the stepping path: potentials
// and gradients through a cached Plan are byte-identical to the one-shot
// SolveWithField, for both the midpoint and the Morton build.
func TestPlanSolveWithFieldMatchesOneShot(t *testing.T) {
	pts := barytree.UniformCube(2500, 64)
	k := barytree.Coulomb()
	for _, morton := range []bool{false, true} {
		p := smallParams()
		p.Morton = morton
		want, err := barytree.SolveWithField(k, pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := barytree.NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.SolveWithField(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Phi {
			if got.Phi[i] != want.Phi[i] || got.GX[i] != want.GX[i] ||
				got.GY[i] != want.GY[i] || got.GZ[i] != want.GZ[i] {
				t.Fatalf("morton=%v: field %d differs: plan (%g,%g,%g,%g) vs one-shot (%g,%g,%g,%g)",
					morton, i, got.Phi[i], got.GX[i], got.GY[i], got.GZ[i],
					want.Phi[i], want.GX[i], want.GY[i], want.GZ[i])
			}
		}
	}
}

// TestPlanUpdate pins the public update contract end to end: a zero-drift
// Update refits and solves byte-identically to the pre-update plan, and an
// Update that restructures solves byte-identically to a one-shot Solve at
// the new positions.
func TestPlanUpdate(t *testing.T) {
	pts := barytree.UniformCube(2500, 65)
	p := smallParams()
	p.Morton = true
	p.LeafSize, p.BatchSize = 100, 100
	k := barytree.Coulomb()
	pl, err := barytree.NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	pl.SetTracer(barytree.NewTracer())
	before, err := pl.Solve(k, nil)
	if err != nil {
		t.Fatal(err)
	}

	st, err := pl.Update(pts.X, pts.Y, pts.Z)
	if err != nil {
		t.Fatal(err)
	}
	if st.Action != barytree.UpdateRefit {
		t.Fatalf("zero drift took %v, want refit", st.Action)
	}
	after, err := pl.Solve(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("zero-drift update changed potential %d: %g vs %g", i, after[i], before[i])
		}
	}

	// Teleport a block of particles; whichever non-refit path runs, the
	// plan must solve exactly like a one-shot at the new positions.
	rng := rand.New(rand.NewSource(66))
	moved := pts.Clone()
	for m := 0; m < 100; m++ {
		i := rng.Intn(pts.Len())
		moved.X[i] = 1.8*rng.Float64() - 0.9
		moved.Y[i] = 1.8*rng.Float64() - 0.9
		moved.Z[i] = 1.8*rng.Float64() - 0.9
	}
	st, err = pl.Update(moved.X, moved.Y, moved.Z)
	if err != nil {
		t.Fatal(err)
	}
	if st.Action == barytree.UpdateRefit {
		t.Fatalf("teleported block still refit: %+v", st)
	}
	got, err := pl.Solve(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := barytree.Solve(k, moved, moved, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-%v potential %d: plan %g vs one-shot %g", st.Action, i, got[i], want[i])
		}
	}
}
