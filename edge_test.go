package barytree_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"barytree"
)

// scaledCube is barytree.UniformCube(n, seed) with its coordinates
// multiplied by s; the charges are kept.
func scaledCube(n int, seed int64, s float64) *barytree.Particles {
	pts := barytree.UniformCube(n, seed)
	for i := range pts.X {
		pts.X[i] *= s
		pts.Y[i] *= s
		pts.Z[i] *= s
	}
	return pts
}

// TestSolveScaledCoordinates pins the charge pass at extreme coordinate
// scales: at 1e150 (1e-150) the product of a particle's three barycentric
// denominators underflows (overflows), and at 1e104 it is subnormal, so
// the charge over it overflows. Each once turned most potentials into NaN
// behind a nil error. Every public solve must return finite potentials
// whose error against the direct sum stays within 2x of the unscaled
// run's.
func TestSolveScaledCoordinates(t *testing.T) {
	k := barytree.Coulomb()
	p := barytree.Params{Theta: 0.8, Degree: 4, LeafSize: 8, BatchSize: 8}
	solvers := []struct {
		name  string
		solve func(pts *barytree.Particles) ([]float64, error)
	}{
		{"Solve", func(pts *barytree.Particles) ([]float64, error) {
			return barytree.Solve(k, pts, pts, p)
		}},
		{"Plan.Solve", func(pts *barytree.Particles) ([]float64, error) {
			pl, err := barytree.NewPlan(pts, pts, p)
			if err != nil {
				return nil, err
			}
			return pl.Solve(k, pts.Q)
		}},
		{"SolveWithField", func(pts *barytree.Particles) ([]float64, error) {
			res, err := barytree.SolveWithField(k, pts, pts, p)
			if err != nil {
				return nil, err
			}
			return res.Phi, nil
		}},
		{"SolveDevice", func(pts *barytree.Particles) ([]float64, error) {
			res, err := barytree.SolveDevice(k, pts, pts, p, barytree.DeviceConfig{})
			if err != nil {
				return nil, err
			}
			return res.Phi, nil
		}},
		{"SolveDistributed", func(pts *barytree.Particles) ([]float64, error) {
			res, err := barytree.SolveDistributed(k, pts, p, barytree.DistributedConfig{Ranks: 3})
			if err != nil {
				return nil, err
			}
			return res.Phi, nil
		}},
		{"SolveVariant(cc)", func(pts *barytree.Particles) ([]float64, error) {
			return barytree.SolveVariant(barytree.ClusterCluster, k, pts, pts, p)
		}},
	}
	errAt := func(t *testing.T, solve func(*barytree.Particles) ([]float64, error), s float64) float64 {
		t.Helper()
		pts := scaledCube(2000, 3, s)
		phi, err := solve(pts)
		if err != nil {
			t.Fatalf("scale %g: %v", s, err)
		}
		for i, v := range phi {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("scale %g: potential %d is %g", s, i, v)
			}
		}
		return barytree.RelErr2(barytree.DirectSum(k, pts, pts), phi)
	}
	for _, sv := range solvers {
		t.Run(sv.name, func(t *testing.T) {
			base := errAt(t, sv.solve, 1)
			for _, s := range []float64{1e150, 1e-150, 1e104} {
				if e := errAt(t, sv.solve, s); !(e <= 2*base) {
					t.Fatalf("scale %g: RelErr2 %.3e, unscaled %.3e", s, e, base)
				}
			}
		})
	}
}

// TestSolveVariantRejectsNonFinite pins every treecode variant to the
// public edge's input check: a NaN, +Inf or -Inf in any coordinate of
// the targets or of the sources is an error naming its index, returned
// before any tree is built. ClusterParticle and ClusterCluster once built
// their trees unchecked; a NaN made the partition spin, and an infinity
// gave a nil error. Each call runs under a deadline, so a hang fails the
// test instead of stalling it.
func TestSolveVariantRejectsNonFinite(t *testing.T) {
	k := barytree.Coulomb()
	three := barytree.NewParticles(3)
	three.Append(0, 0, 0, 1)
	three.Append(0.5, 0.5, 0.5, 1)
	three.Append(1, 1, 1, 1)
	inputs := []struct {
		pts *barytree.Particles
		bad int
		p   barytree.Params
	}{
		{three, 1, barytree.Params{Theta: 0.8, Degree: 2, LeafSize: 1, BatchSize: 1}},
		{barytree.UniformCube(200, 1), 137, barytree.Params{Theta: 0.8, Degree: 2, LeafSize: 8, BatchSize: 8}},
	}
	for _, in := range inputs {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for axis := 0; axis < 3; axis++ {
				for _, side := range []string{"targets", "sources"} {
					bad := in.pts.Clone()
					[3][]float64{bad.X, bad.Y, bad.Z}[axis][in.bad] = v
					targets, sources := in.pts, in.pts
					if side == "targets" {
						targets = bad
					} else {
						sources = bad
					}
					want := fmt.Sprintf("core: bad %s: particle: non-finite value at index %d", side, in.bad)
					for _, variant := range []barytree.TreecodeVariant{barytree.ParticleCluster, barytree.ClusterParticle, barytree.ClusterCluster} {
						done := make(chan error, 1)
						go func() {
							_, err := barytree.SolveVariant(variant, k, targets, sources, in.p)
							done <- err
						}()
						select {
						case err := <-done:
							if err == nil || !strings.Contains(err.Error(), want) {
								t.Errorf("%s: %v at %s axis %d of n=%d: got %v, want %q", variant, v, side, axis, in.pts.Len(), err, want)
							}
						case <-time.After(10 * time.Second):
							t.Fatalf("%s: %v at %s axis %d of n=%d: no return within 10 s", variant, v, side, axis, in.pts.Len())
						}
					}
				}
			}
		}
	}
}

// fuzzScales are the per-axis coordinate scales FuzzPlanSolve mixes; two
// bits of its scales byte per axis pick one. 1e104 on every axis makes
// the charge pass's denominator product subnormal.
var fuzzScales = [4]float64{1, 1e150, 1e-150, 1e104}

// fuzzSet builds n particles of one adversarial shape from
// barytree.UniformCube(n, seed): shape%5 keeps the cube (0), or makes the
// points coincident (1), collinear on a tilted line (2), planar on z = 0
// (3) or snapped to a half-unit lattice, so most coordinates repeat (4).
// Axis d is then scaled by fuzzScales[scales>>(2d)&3].
func fuzzSet(n int, seed int64, shape, scales uint8) *barytree.Particles {
	pts := barytree.UniformCube(n, seed)
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
		pts.X[i] *= fuzzScales[scales&3]
		pts.Y[i] *= fuzzScales[scales>>2&3]
		pts.Z[i] *= fuzzScales[scales>>4&3]
	}
	return pts
}

// FuzzPlanSolve drives NewPlan + Plan.Solve through adversarial geometry
// at the public edge: coincident, collinear, planar and lattice points,
// N from 1 through a few leaves (below, at and above the leaf size, and
// across the parallel build's task cutoff), per-axis scales mixing 1,
// 1e150, 1e-150 and 1e104, and separate targets when nt > 0. No input may
// panic or yield a non-finite potential, and the potentials must be ==
// across Params.Workers 1, 2 and 4 and == the one-shot Solve. Each plan
// also runs Plan.SolveWithField with RegularizedCoulomb at eps 0.05 and
// 0: its potentials and gradients must be bit-identical across the worker
// counts and to the one-shot SolveWithField, and finite at eps 0.05. At
// eps 0 they may overflow, as EvalGrad's own c = -g/d2 does at tiny
// separations. The first two seeds and the last are the scaled cubes of
// TestSolveScaledCoordinates.
func FuzzPlanSolve(f *testing.F) {
	f.Add(int64(3), uint16(1999), uint8(7), uint8(0), uint8(0b010101), uint16(0))
	f.Add(int64(3), uint16(1999), uint8(7), uint8(0), uint8(0b101010), uint16(0))
	f.Add(int64(1), uint16(0), uint8(7), uint8(0), uint8(0), uint16(0))
	f.Add(int64(2), uint16(7), uint8(7), uint8(1), uint8(0), uint16(0))
	f.Add(int64(4), uint16(8), uint8(7), uint8(2), uint8(0b100100), uint16(30))
	f.Add(int64(5), uint16(299), uint8(7), uint8(3), uint8(0b000110), uint16(0))
	f.Add(int64(6), uint16(511), uint8(15), uint8(4), uint8(0b011000), uint16(200))
	f.Add(int64(3), uint16(1999), uint8(7), uint8(0), uint8(0b111111), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, leafRaw, shape, scales uint8, ntRaw uint16) {
		n := int(nRaw%2048) + 1
		leaf := int(leafRaw%64) + 1
		sources := fuzzSet(n, seed, shape, scales)
		targets := sources
		if nt := int(ntRaw % 512); nt > 0 {
			targets = fuzzSet(nt, seed+1, shape, scales)
		}
		k := barytree.Coulomb()
		p := barytree.Params{Theta: 0.8, Degree: 4, LeafSize: leaf, BatchSize: leaf}
		want, err := barytree.Solve(k, targets, sources, p)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		epsilons := []float64{0.05, 0}
		wantFields := make([]*barytree.FieldResult, len(epsilons))
		for e, eps := range epsilons {
			if wantFields[e], err = barytree.SolveWithField(barytree.RegularizedCoulomb(eps), targets, sources, p); err != nil {
				t.Fatalf("eps=%g: SolveWithField: %v", eps, err)
			}
		}
		for _, w := range []int{1, 2, 4} {
			p.Workers = w
			pl, err := barytree.NewPlan(targets, sources, p)
			if err != nil {
				t.Fatalf("workers=%d: NewPlan: %v", w, err)
			}
			got, err := pl.Solve(k, sources.Q)
			if err != nil {
				t.Fatalf("workers=%d: Plan.Solve: %v", w, err)
			}
			for i, v := range got {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("workers=%d: potential %d is %g", w, i, v)
				}
				if v != want[i] {
					t.Fatalf("workers=%d: potential %d = %v, Solve gave %v", w, i, v, want[i])
				}
			}
			for e, eps := range epsilons {
				f, err := pl.SolveWithField(barytree.RegularizedCoulomb(eps), sources.Q)
				if err != nil {
					t.Fatalf("workers=%d eps=%g: Plan.SolveWithField: %v", w, eps, err)
				}
				wf := wantFields[e]
				for i := range wf.Phi {
					got := [4]float64{f.Phi[i], f.GX[i], f.GY[i], f.GZ[i]}
					want := [4]float64{wf.Phi[i], wf.GX[i], wf.GY[i], wf.GZ[i]}
					for o, v := range got {
						if math.Float64bits(v) != math.Float64bits(want[o]) {
							t.Fatalf("workers=%d eps=%g: field %d = %v, SolveWithField gave %v", w, eps, i, got, want)
						}
						if eps != 0 && (math.IsNaN(v) || math.IsInf(v, 0)) {
							t.Fatalf("workers=%d eps=%g: field %d = %v", w, eps, i, got)
						}
					}
				}
			}
		}
	})
}
