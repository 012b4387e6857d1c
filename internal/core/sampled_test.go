package core

import (
	"reflect"
	"sync"
	"testing"

	"barytree/internal/kernel"
	"barytree/internal/particle"
)

func TestEvaluateSampledMatchesFullRun(t *testing.T) {
	pts := testParticles(t, 5000, 31)
	k := kernel.Yukawa{Kappa: 0.5}
	p := Params{Theta: 0.7, Degree: 5, LeafSize: 200, BatchSize: 200}
	pl, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	full := RunCPU(pl, k, CPUOptions{})

	pl2, _ := NewPlan(pts, pts, p)
	sample := []int{0, 1, 999, 2500, 4999, 3123}
	phi, err := EvaluateSampled(pl2, k, NewChargeState(pl2), sample)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range sample {
		if d := phi[i] - full.Phi[idx]; d > 1e-12 || d < -1e-12 {
			t.Errorf("sample %d (target %d): %.15g vs full %.15g", i, idx, phi[i], full.Phi[idx])
		}
	}
}

func TestEvaluateSampledLazyCharges(t *testing.T) {
	// Only clusters on sampled batches' lists get charges, and they go
	// into the caller's state, never the plan.
	pts := testParticles(t, 8000, 32)
	p := Params{Theta: 0.5, Degree: 4, LeafSize: 100, BatchSize: 100}
	pl, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	st := NewChargeState(pl)
	if _, err := EvaluateSampled(pl, kernel.Coulomb{}, st, []int{42}); err != nil {
		t.Fatal(err)
	}
	computed := countCharged(st)
	if computed == 0 {
		t.Fatal("no charges computed at all")
	}
	if computed == len(st.Qhat) {
		t.Error("sampled evaluation computed charges for every cluster; laziness broken")
	}
	if pl.Clusters.Qhat != nil {
		t.Error("sampled evaluation wrote modified charges into the plan")
	}
	t.Logf("charges computed for %d/%d clusters", computed, len(st.Qhat))
}

func TestEvaluateSampledRejectsBadIndices(t *testing.T) {
	pts := testParticles(t, 500, 33)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 3, LeafSize: 50, BatchSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateSampled(pl, kernel.Coulomb{}, NewChargeState(pl), []int{500}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := EvaluateSampled(pl, kernel.Coulomb{}, NewChargeState(pl), []int{-1}); err == nil {
		t.Error("negative index accepted")
	}
}

func TestEvaluateSampledRepeatedCallsShareCharges(t *testing.T) {
	pts := testParticles(t, 3000, 34)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 4, LeafSize: 100, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.Coulomb{}
	st := NewChargeState(pl)
	a, err := EvaluateSampled(pl, k, st, []int{7, 2999})
	if err != nil {
		t.Fatal(err)
	}
	charged := countCharged(st)
	b, err := EvaluateSampled(pl, k, st, []int{7, 2999})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] || a[1] != b[1] {
		t.Error("repeated sampled evaluation changed results")
	}
	if n := countCharged(st); n != charged {
		t.Errorf("repeated sampled evaluation charged %d more nodes; the state's charges were not shared", n-charged)
	}
}

func TestTinyProblems(t *testing.T) {
	k := kernel.Coulomb{}
	for _, n := range []int{1, 2, 3, 9} {
		pts := testParticles(t, n, int64(40+n))
		pl, err := NewPlan(pts, pts, Params{Theta: 0.5, Degree: 2, LeafSize: 4, BatchSize: 4})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		res := RunCPU(pl, k, CPUOptions{})
		// Tiny systems are computed entirely directly: exact.
		var want float64
		for j := 1; j < n; j++ {
			want += k.Eval(pts.X[0], pts.Y[0], pts.Z[0], pts.X[j], pts.Y[j], pts.Z[j]) * pts.Q[j]
		}
		orig0 := res.Phi[0]
		if d := orig0 - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("n=%d: phi[0] = %g, want %g", n, orig0, want)
		}
	}
}

func TestSnappedVsUnsnappedAccuracyEquivalent(t *testing.T) {
	// Leaf-size snapping changes performance, never correctness.
	pts := testParticles(t, 5000, 35)
	k := kernel.Coulomb{}
	var errs []float64
	for _, leaf := range []int{150, 200, 380} {
		pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 5, LeafSize: leaf, BatchSize: leaf})
		if err != nil {
			t.Fatal(err)
		}
		res := RunCPU(pl, k, CPUOptions{})
		errs = append(errs, res.Phi[0])
	}
	// All leaf sizes approximate the same sum: spot value within treecode
	// tolerance of each other.
	for i := 1; i < len(errs); i++ {
		if d := errs[i] - errs[0]; d > 1e-4 || d < -1e-4 {
			t.Errorf("leaf-size variants disagree: %v", errs)
		}
	}
}

func TestFindBatch(t *testing.T) {
	pts := testParticles(t, 1000, 36)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 3, LeafSize: 64, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for bi := range pl.Batches.Batches {
		b := &pl.Batches.Batches[bi]
		for ti := b.Lo; ti < b.Hi; ti++ {
			if got := findBatch(pl, ti); got != bi {
				t.Fatalf("findBatch(%d) = %d, want %d", ti, got, bi)
			}
		}
	}
	if findBatch(pl, -1) != -1 || findBatch(pl, pts.Len()) != -1 {
		t.Error("out-of-range target should return -1")
	}
}

func TestLatticeParticlesExerciseSingularities(t *testing.T) {
	// A regular lattice guarantees many exact coordinate coincidences
	// between particles and cluster box corners, stressing the removable
	// singularity handling of Section 2.3.
	pts := particle.Lattice(12) // 1728 points
	k := kernel.Coulomb{}
	pl, err := NewPlan(pts, pts, Params{Theta: 0.6, Degree: 4, LeafSize: 100, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	res := RunCPU(pl, k, CPUOptions{})
	for i, v := range res.Phi {
		if v != v { // NaN check
			t.Fatalf("NaN potential at lattice point %d", i)
		}
	}
	// Compare against direct at a few points.
	for _, i := range []int{0, 100, 863, 1727} {
		var want float64
		for j := 0; j < pts.Len(); j++ {
			want += k.Eval(pts.X[i], pts.Y[i], pts.Z[i], pts.X[j], pts.Y[j], pts.Z[j]) * pts.Q[j]
		}
		rel := (res.Phi[i] - want) / want
		if rel > 1e-4 || rel < -1e-4 {
			t.Errorf("lattice point %d: phi %.6g vs direct %.6g", i, res.Phi[i], want)
		}
	}
}

// TestEvaluateSampledConcurrent runs two sampled evaluations, each with its
// own state, a plan solve and RunCPU concurrently on one plan (run it
// under -race): the plan is only read, so every result equals its serial
// twin bit for bit.
func TestEvaluateSampledConcurrent(t *testing.T) {
	pts := testParticles(t, 3000, 37)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.6, Degree: 3, LeafSize: 100, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.Coulomb{}
	samples := [][]int{{1, 500, 2999, 1234}, {7, 8, 9, 2500}}
	sampled := func(i int) ([]float64, error) {
		return EvaluateSampled(pl, k, NewChargeState(pl), samples[i])
	}
	solve := func() []float64 { return SolvePotentials(pl, k, NewChargeState(pl), 2) }
	run := func() []float64 { return RunCPU(pl, k, CPUOptions{Workers: 2}).Phi }

	var want [4][]float64
	for i := range samples {
		if want[i], err = sampled(i); err != nil {
			t.Fatal(err)
		}
	}
	want[2], want[3] = solve(), run()

	var got [4][]float64
	var wg sync.WaitGroup
	wg.Add(4)
	for i := range samples {
		go func(i int) {
			defer wg.Done()
			var err error
			if got[i], err = sampled(i); err != nil {
				t.Error(err)
			}
		}(i)
	}
	go func() { defer wg.Done(); got[2] = solve() }()
	go func() { defer wg.Done(); got[3] = run() }()
	wg.Wait()
	for i, name := range []string{"EvaluateSampled a", "EvaluateSampled b", "SolvePotentials", "RunCPU"} {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: concurrent result differs from serial", name)
		}
	}
}
