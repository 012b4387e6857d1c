package core

import (
	"math"
	"testing"

	"barytree/internal/direct"
	"barytree/internal/kernel"
	"barytree/internal/metrics"
)

func TestFieldsMatchDirectSum(t *testing.T) {
	pts := testParticles(t, 3000, 21)
	k := kernel.Coulomb{}
	refPhi, refGX, refGY, refGZ := direct.Fields(k, pts, pts)

	pl, err := NewPlan(pts, pts, Params{Theta: 0.6, Degree: 7, LeafSize: 150, BatchSize: 150})
	if err != nil {
		t.Fatal(err)
	}
	res := RunCPUFields(pl, k, CPUOptions{})
	if e := metrics.RelErr2(refPhi, res.Phi); e > 1e-5 {
		t.Errorf("potential error %.3g", e)
	}
	for name, pair := range map[string][2][]float64{
		"gx": {refGX, res.GX}, "gy": {refGY, res.GY}, "gz": {refGZ, res.GZ},
	} {
		if e := metrics.RelErr2(pair[0], pair[1]); e > 1e-4 {
			t.Errorf("%s error %.3g", name, e)
		}
	}
}

func TestFieldsYukawa(t *testing.T) {
	pts := testParticles(t, 2000, 22)
	k := kernel.Yukawa{Kappa: 0.5}
	_, refGX, _, _ := direct.Fields(k, pts, pts)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.6, Degree: 8, LeafSize: 120, BatchSize: 120})
	if err != nil {
		t.Fatal(err)
	}
	res := RunCPUFields(pl, k, CPUOptions{})
	if e := metrics.RelErr2(refGX, res.GX); e > 1e-4 {
		t.Errorf("yukawa gx error %.3g", e)
	}
}

func TestFieldPhiMatchesPotentialOnlyPath(t *testing.T) {
	// The potential computed by the field path must agree closely with
	// the potential-only path (same lists, same charges; the only
	// difference is evaluation order within a target's accumulation).
	pts := testParticles(t, 2000, 23)
	k := kernel.Coulomb{}
	p := Params{Theta: 0.7, Degree: 5, LeafSize: 100, BatchSize: 100}
	pl1, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	potOnly := RunCPU(pl1, k, CPUOptions{})
	pl2, _ := NewPlan(pts, pts, p)
	fields := RunCPUFields(pl2, k, CPUOptions{})
	if e := metrics.RelErr2(potOnly.Phi, fields.Phi); e > 1e-14 {
		t.Errorf("field-path potential deviates: %.3g", e)
	}
}

func TestFieldGradientConvergesWithDegree(t *testing.T) {
	pts := testParticles(t, 2000, 24)
	k := kernel.Coulomb{}
	_, refGX, _, _ := direct.Fields(k, pts, pts)
	var prev = math.Inf(1)
	for _, n := range []int{2, 5, 8} {
		pl, err := NewPlan(pts, pts, Params{Theta: 0.6, Degree: n, LeafSize: 100, BatchSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		res := RunCPUFields(pl, k, CPUOptions{})
		e := metrics.RelErr2(refGX, res.GX)
		if e > prev*1.5 && e > 1e-12 {
			t.Errorf("degree %d: gradient error %.3g did not decrease from %.3g", n, e, prev)
		}
		prev = e
	}
	if prev > 1e-5 {
		t.Errorf("degree 8 gradient error %.3g too large", prev)
	}
}

func TestFieldTimesExceedPotentialTimes(t *testing.T) {
	// Gradients cost more per interaction; the model must reflect it.
	pts := testParticles(t, 2000, 25)
	k := kernel.Coulomb{}
	p := Params{Theta: 0.7, Degree: 5, LeafSize: 100, BatchSize: 100}
	pl1, _ := NewPlan(pts, pts, p)
	pot := RunCPU(pl1, k, CPUOptions{})
	pl2, _ := NewPlan(pts, pts, p)
	fld := RunCPUFields(pl2, k, CPUOptions{})
	if fld.Times.Total() <= pot.Times.Total() {
		t.Errorf("field time %.4g not above potential time %.4g", fld.Times.Total(), pot.Times.Total())
	}
}

// TestFieldsTiledBitIdentical pins the tiled field path to the per-target
// EvalGrad chains: RunCPUFields and RunFieldsState return exactly (==, bit
// for bit) the potentials and gradients they return for the same kernel
// hidden behind a foreign type, which kernel.GradTiles resolves to the
// width-1 loop that calls EvalGrad through the interface. That holds with
// the assembly kernels installed (8 → 4 → 1 on avx512vl) and switched off,
// where RegularizedCoulomb runs its own width-1 loop alone. It covers
// midpoint and Morton plans whose batches leave every tail length 0-7
// after the 8- and 4-wide tiles, and zero softening with targets ==
// sources, where the self terms take the masked lanes.
func TestFieldsTiledBitIdentical(t *testing.T) {
	pts := testParticles(t, 2203, 31)
	for _, morton := range []bool{false, true} {
		pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 5, LeafSize: 60, BatchSize: 37, Morton: morton})
		if err != nil {
			t.Fatal(err)
		}
		var tails [8]int
		for _, b := range pl.Batches.Batches {
			tails[(b.Hi-b.Lo)%len(tails)]++
		}
		for r, c := range tails {
			if c == 0 {
				t.Fatalf("morton=%v: no batch leaves a tail of %d targets (tails %v)", morton, r, tails)
			}
		}
		for _, eps := range []float64{0.05, 0} {
			k := kernel.RegularizedCoulomb{Eps: eps}
			refCPU, refState := fieldsBothWays(pl, foreignGrad{k})
			tiledCPU, tiledState := fieldsBothWays(pl, k)
			prev := kernel.SetAsmKernels(false)
			goCPU, goState := fieldsBothWays(pl, k)
			kernel.SetAsmKernels(prev)
			for _, c := range []struct {
				name      string
				got, want *FieldResult
			}{
				{"RunCPUFields", tiledCPU, refCPU}, {"RunFieldsState", tiledState, refState},
				{"RunCPUFields, assembly off", goCPU, refCPU}, {"RunFieldsState, assembly off", goState, refState},
			} {
				for i := range c.want.Phi {
					got := [4]float64{c.got.Phi[i], c.got.GX[i], c.got.GY[i], c.got.GZ[i]}
					want := [4]float64{c.want.Phi[i], c.want.GX[i], c.want.GY[i], c.want.GZ[i]}
					for o := range got {
						if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
							t.Fatalf("morton=%v eps=%g %s: target %d tiled %v != EvalGrad chains %v",
								morton, eps, c.name, i, got, want)
						}
					}
				}
			}
		}
	}
}

// foreignGrad hides a gradient kernel behind a type kernel.GradTiles does
// not recognize, so it resolves the width-1 EvalGrad loop alone.
type foreignGrad struct{ kernel.GradKernel }

// fieldsBothWays evaluates pl's fields through RunCPUFields (input order)
// and through RunFieldsState on a fresh ChargeState (batch order).
func fieldsBothWays(pl *Plan, k kernel.GradKernel) (cpu, state *FieldResult) {
	cpu = RunCPUFields(pl, k, CPUOptions{})
	st := NewChargeState(pl)
	st.Compute(pl, 0)
	n := pl.Batches.Targets.Len()
	state = &FieldResult{Phi: make([]float64, n), GX: make([]float64, n), GY: make([]float64, n), GZ: make([]float64, n)}
	RunFieldsState(pl, k, st, state.Phi, state.GX, state.GY, state.GZ, 0)
	return cpu, state
}
