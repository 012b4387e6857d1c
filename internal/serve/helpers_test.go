package serve

import (
	"math/rand"
	"testing"

	"barytree"
	"barytree/internal/core"
	"barytree/internal/kernel"
	"barytree/internal/particle"
)

// testSet builds a deterministic point cloud with zero charges (the
// geometry form plans are built from) plus a matching charge vector.
func testSet(n int, seed int64) (*particle.Set, []float64) {
	rng := rand.New(rand.NewSource(seed))
	s := &particle.Set{
		X: make([]float64, n),
		Y: make([]float64, n),
		Z: make([]float64, n),
		Q: make([]float64, n),
	}
	q := make([]float64, n)
	for i := 0; i < n; i++ {
		s.X[i] = rng.Float64()
		s.Y[i] = rng.Float64()
		s.Z[i] = rng.Float64()
		q[i] = 2*rng.Float64() - 1
	}
	return s, q
}

// withCharges clones set with q installed, for reference solves through
// the one-shot library path.
func withCharges(s *particle.Set, q []float64) *particle.Set {
	c := &particle.Set{X: s.X, Y: s.Y, Z: s.Z, Q: q}
	return c
}

// testParams are small-but-structured treecode parameters: deep enough
// for real interaction lists, cheap enough for -race stress loops.
func testParams() core.Params {
	return core.Params{Theta: 0.7, Degree: 3, LeafSize: 60, BatchSize: 60}
}

// pointsSpec converts a particle set to its wire form.
func pointsSpec(s *particle.Set) *PointsSpec {
	return &PointsSpec{X: s.X, Y: s.Y, Z: s.Z}
}

// paramsSpec converts params to their wire form.
func paramsSpec(p core.Params) *ParamsSpec {
	return &ParamsSpec{Theta: p.Theta, Degree: p.Degree, LeafSize: p.LeafSize, BatchSize: p.BatchSize}
}

// refSolve computes the reference potentials through the one-shot library
// path (fresh setup per call — the baseline every served result must match
// byte-for-byte).
func refSolve(t *testing.T, k kernel.Kernel, s *barytree.Particles, q []float64, p core.Params) []float64 {
	t.Helper()
	set := withCharges(s, q)
	phi, err := barytree.Solve(k, set, set, p)
	if err != nil {
		t.Fatal(err)
	}
	return phi
}
