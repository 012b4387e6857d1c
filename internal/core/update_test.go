package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/trace"
	"barytree/internal/tree"
)

// updParams are the Morton-mode parameters shared by the update tests.
// LeafSize == BatchSize makes the batches the source tree's leaves.
func updParams() Params {
	return Params{Theta: 0.7, Degree: 4, LeafSize: 50, BatchSize: 50, Morton: true}
}

// updSolve runs the plan's state-based solve and returns potentials in the
// original particle order — the same path as the public Plan.Solve.
func updSolve(t *testing.T, pl *Plan, k kernel.Kernel) []float64 {
	t.Helper()
	return SolvePotentials(pl, k, NewChargeState(pl), 0)
}

// wantExact asserts byte-identical potentials (exact ==, no tolerance).
func wantExact(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: phi[%d] = %x, want %x (not byte-identical)", what, i, got[i], want[i])
		}
	}
}

// wantFreshEqual asserts the updated plan's structures are bit-identical to
// a fresh NewPlan at the same positions and charges.
func wantFreshEqual(t *testing.T, pl *Plan, x, y, z, q []float64, p Params) *Plan {
	t.Helper()
	mk := func() *particle.Set {
		return &particle.Set{
			X: append([]float64(nil), x...), Y: append([]float64(nil), y...),
			Z: append([]float64(nil), z...), Q: append([]float64(nil), q...),
		}
	}
	fresh, err := NewPlan(mk(), mk(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pl.Sources, fresh.Sources) {
		t.Fatal("updated source tree differs from fresh build")
	}
	if !reflect.DeepEqual(pl.Batches, fresh.Batches) {
		t.Fatal("updated batches differ from fresh build")
	}
	if !reflect.DeepEqual(pl.Lists, fresh.Lists) {
		t.Fatal("updated interaction lists differ from fresh build")
	}
	if !reflect.DeepEqual(pl.Clusters, fresh.Clusters) {
		t.Fatal("updated cluster data differs from fresh build")
	}
	return fresh
}

// TestMortonBatchesMatchSeparateBuild pins the batches a Morton plan cuts
// from its source order against the construction the cut replaced: a
// Morton build of the targets alone at leaf size BatchSize. Ranges,
// centers, radii, Stats, Perm and target storage must be reflect.DeepEqual,
// at build and after a forced repair, for BatchSize below, above and equal
// to LeafSize.
func TestMortonBatchesMatchSeparateBuild(t *testing.T) {
	defer func(f, r float64) { RefitMaxOutOfTolerance, RepairMaxFraction = f, r }(RefitMaxOutOfTolerance, RepairMaxFraction)
	RefitMaxOutOfTolerance, RepairMaxFraction = 0, 1 // any drift repairs

	const n = 2000
	pts := testParticles(t, n, 25)
	for _, c := range []struct{ leaf, batch int }{{60, 37}, {40, 100}, {50, 50}} {
		t.Run(fmt.Sprintf("leaf%d_batch%d", c.leaf, c.batch), func(t *testing.T) {
			p := Params{Theta: 0.7, Degree: 3, LeafSize: c.leaf, BatchSize: c.batch, Morton: true}
			pl, err := NewPlan(pts, pts, p)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, targets *particle.Set) {
				t.Helper()
				tt, _ := tree.BuildMortonWorkers(targets, p.BatchSize, 0)
				if !reflect.DeepEqual(pl.Batches, tree.BatchSetFromTree(tt)) {
					t.Fatalf("%s: batches differ from a separate Morton build at BatchSize", what)
				}
			}
			check("build", pts)

			rng := rand.New(rand.NewSource(26))
			moved := &particle.Set{
				X: append([]float64(nil), pts.X...), Y: append([]float64(nil), pts.Y...),
				Z: append([]float64(nil), pts.Z...), Q: pts.Q,
			}
			for m := 0; m < 40; m++ {
				i := rng.Intn(n)
				moved.X[i], moved.Y[i], moved.Z[i] = 0.05+0.9*rng.Float64(), 0.05+0.9*rng.Float64(), 0.05+0.9*rng.Float64()
			}
			st, err := pl.update(moved.X, moved.Y, moved.Z)
			if err != nil {
				t.Fatal(err)
			}
			if st.Action != UpdateRepair {
				t.Fatalf("teleports took %v (evidence %+v), want the forced repair", st.Action, st)
			}
			check("repair", moved)
		})
	}
}

func TestUpdateZeroDriftByteIdentical(t *testing.T) {
	pts := testParticles(t, 2500, 11)
	k := kernel.Coulomb{}
	pl, err := NewPlan(pts, pts, updParams())
	if err != nil {
		t.Fatal(err)
	}
	before := updSolve(t, pl, k)

	st, err := pl.update(pts.X, pts.Y, pts.Z)
	if err != nil {
		t.Fatal(err)
	}
	if st.Action != UpdateRefit {
		t.Fatalf("zero drift took %v, want refit", st.Action)
	}
	if st.OutOfTolerance != 0 || st.Drifters != 0 || st.MACViolations != 0 {
		t.Fatalf("zero drift reported evidence %+v", st)
	}
	after := updSolve(t, pl, k)
	wantExact(t, after, before, "zero-drift update")

	if pl.gen != 1 {
		t.Fatalf("generation = %d after one update, want 1", pl.gen)
	}
}

// Update is a test-file helper wrapper that threads a nil tracer, keeping
// call sites close to the public API shape.
func (pl *Plan) update(x, y, z []float64) (UpdateStats, error) {
	return pl.Update(x, y, z, nil)
}

func TestUpdateRefitSmallDrift(t *testing.T) {
	pts := testParticles(t, 2500, 12)
	k := kernel.Coulomb{}
	pl, err := NewPlan(pts, pts, updParams())
	if err != nil {
		t.Fatal(err)
	}
	ref := updSolve(t, pl, k)

	rng := rand.New(rand.NewSource(13))
	x := append([]float64(nil), pts.X...)
	y := append([]float64(nil), pts.Y...)
	z := append([]float64(nil), pts.Z...)
	for i := range x {
		x[i] += 1e-9 * (rng.Float64() - 0.5)
		y[i] += 1e-9 * (rng.Float64() - 0.5)
		z[i] += 1e-9 * (rng.Float64() - 0.5)
	}
	st, err := pl.update(x, y, z)
	if err != nil {
		t.Fatal(err)
	}
	if st.Action != UpdateRefit {
		t.Fatalf("tiny drift took %v (evidence %+v), want refit", st.Action, st)
	}
	got := updSolve(t, pl, k)
	// The geometry barely moved; the solve must track it, not the stale one
	// bit-for-bit, but stay numerically indistinguishable at this scale.
	for i := range got {
		if math.Abs(got[i]-ref[i]) > 1e-4*math.Abs(ref[i])+1e-12 {
			t.Fatalf("refit solve drifted at %d: %g vs %g", i, got[i], ref[i])
		}
	}
}

func TestUpdateRepairMatchesFreshPlan(t *testing.T) {
	n := 3000
	pts := testParticles(t, n, 14)
	k := kernel.Coulomb{}
	p := updParams()
	pl, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}

	// ~1.3% of particles teleport within the interior of the original
	// bounds (far enough to leave their leaf cells), the rest hold still:
	// local drift, stable quantization domain.
	rng := rand.New(rand.NewSource(15))
	x := append([]float64(nil), pts.X...)
	y := append([]float64(nil), pts.Y...)
	z := append([]float64(nil), pts.Z...)
	for m := 0; m < 40; m++ {
		i := rng.Intn(n)
		x[i] = 0.05 + 0.9*rng.Float64()
		y[i] = 0.05 + 0.9*rng.Float64()
		z[i] = 0.05 + 0.9*rng.Float64()
	}
	st, err := pl.update(x, y, z)
	if err != nil {
		t.Fatal(err)
	}
	if st.Action != UpdateRepair {
		t.Fatalf("local drift took %v (evidence %+v), want repair", st.Action, st)
	}
	if st.OutOfTolerance == 0 || st.Drifters == 0 {
		t.Fatalf("repair with no evidence: %+v", st)
	}
	fresh := wantFreshEqual(t, pl, x, y, z, pts.Q, p)
	wantExact(t, updSolve(t, pl, k), updSolve(t, fresh, k), "post-repair solve")
}

func TestUpdateRebuildMatchesFreshPlan(t *testing.T) {
	n := 2000
	pts := testParticles(t, n, 16)
	k := kernel.Coulomb{}
	p := updParams()

	t.Run("widespread drift", func(t *testing.T) {
		pl, err := NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		x := append([]float64(nil), pts.X...)
		y := append([]float64(nil), pts.Y...)
		z := append([]float64(nil), pts.Z...)
		for i := 0; i < n; i += 2 {
			x[i] = 0.05 + 0.9*rng.Float64()
			y[i] = 0.05 + 0.9*rng.Float64()
			z[i] = 0.05 + 0.9*rng.Float64()
		}
		st, err := pl.update(x, y, z)
		if err != nil {
			t.Fatal(err)
		}
		if st.Action != UpdateRebuild {
			t.Fatalf("50%% drift took %v (evidence %+v), want rebuild", st.Action, st)
		}
		fresh := wantFreshEqual(t, pl, x, y, z, pts.Q, p)
		wantExact(t, updSolve(t, pl, k), updSolve(t, fresh, k), "post-rebuild solve")
	})

	t.Run("domain change", func(t *testing.T) {
		pl, err := NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), pts.X...)
		y := append([]float64(nil), pts.Y...)
		z := append([]float64(nil), pts.Z...)
		for i := range x {
			x[i] *= 4
			y[i] *= 4
			z[i] *= 4
		}
		st, err := pl.update(x, y, z)
		if err != nil {
			t.Fatal(err)
		}
		if st.Action != UpdateRebuild {
			t.Fatalf("4x expansion took %v (evidence %+v), want rebuild", st.Action, st)
		}
		fresh := wantFreshEqual(t, pl, x, y, z, pts.Q, p)
		wantExact(t, updSolve(t, pl, k), updSolve(t, fresh, k), "post-rebuild solve")
	})
}

func TestUpdateToleranceBoundary(t *testing.T) {
	defer func(f float64) { RefitMaxOutOfTolerance = f }(RefitMaxOutOfTolerance)
	RefitMaxOutOfTolerance = 0 // pin the strict envelope semantics

	n := 800
	p := updParams()
	pts := testParticles(t, n, 18)
	k := kernel.Coulomb{}

	// Find a leaf with a few particles and real extent, and the envelope
	// bound its first particle may drift to in +X. The drift scale mirrors
	// MortonIndex.OutOfTolerance: the larger of the leaf radius and half
	// its Morton cell side.
	build := func(t *testing.T) (*Plan, int, float64) {
		t.Helper()
		pl, err := NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		idx := pl.upd.idx
		side := idx.Domain.Hi.X - idx.Domain.Lo.X
		for i := range pl.Sources.Nodes {
			nd := &pl.Sources.Nodes[i]
			if nd.IsLeaf() && nd.Count() >= 4 && nd.Radius > 0 {
				scale := nd.Radius
				if half := math.Ldexp(side, int(idx.CellShift[i])/3-tree.MortonBits-1); half > scale {
					scale = half
				}
				oi := pl.Sources.Perm[nd.Lo]
				return pl, oi, nd.Box.Hi.X + driftTol*scale
			}
		}
		t.Fatal("no suitable leaf")
		return nil, 0, 0
	}

	t.Run("exactly at bound refits", func(t *testing.T) {
		pl, oi, bound := build(t)
		x := append([]float64(nil), pts.X...)
		x[oi] = bound // inclusive: still within the envelope
		st, err := pl.update(x, pts.Y, pts.Z)
		if err != nil {
			t.Fatal(err)
		}
		if st.OutOfTolerance != 0 {
			t.Fatalf("particle at the exact bound counted out of tolerance: %+v", st)
		}
		if st.Action != UpdateRefit {
			t.Fatalf("boundary drift took %v (evidence %+v), want refit", st.Action, st)
		}
	})

	t.Run("one ulp past bound does not refit", func(t *testing.T) {
		pl, oi, bound := build(t)
		x := append([]float64(nil), pts.X...)
		x[oi] = math.Nextafter(bound, math.Inf(1))
		st, err := pl.update(x, pts.Y, pts.Z)
		if err != nil {
			t.Fatal(err)
		}
		if st.OutOfTolerance == 0 {
			t.Fatalf("particle past the bound not counted: %+v", st)
		}
		if st.Action == UpdateRefit {
			t.Fatalf("out-of-tolerance drift still refit: %+v", st)
		}
		// Whichever non-refit path ran, the plan must equal a fresh build.
		fresh := wantFreshEqual(t, pl, x, pts.Y, pts.Z, pts.Q, p)
		wantExact(t, updSolve(t, pl, k), updSolve(t, fresh, k), "past-bound solve")
	})
}

func TestUpdateLeafEmptiedByDrift(t *testing.T) {
	defer func(f float64) { RepairMaxFraction = f }(RepairMaxFraction)
	RepairMaxFraction = 1.0 // force the repair path even for a whole leaf

	n := 600
	p := updParams()
	p.LeafSize, p.BatchSize = 20, 20
	pts := testParticles(t, n, 19)
	k := kernel.Coulomb{}
	pl, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}

	// Empty one interior leaf: every particle of it teleports next to an
	// anchor particle from another region (inside the original bounds).
	var leaf int = -1
	for i := range pl.Sources.Nodes {
		nd := &pl.Sources.Nodes[i]
		if nd.IsLeaf() && nd.Count() >= 4 {
			leaf = i
			break
		}
	}
	if leaf < 0 {
		t.Fatal("no leaf with >= 4 particles")
	}
	nd := &pl.Sources.Nodes[leaf]
	x := append([]float64(nil), pts.X...)
	y := append([]float64(nil), pts.Y...)
	z := append([]float64(nil), pts.Z...)
	for j := nd.Lo; j < nd.Hi; j++ {
		oi := pl.Sources.Perm[j]
		f := 1e-7 * float64(j-nd.Lo)
		x[oi] = 0.5 + f
		y[oi] = 0.5 + f
		z[oi] = 0.5 + f
	}
	st, err := pl.update(x, y, z)
	if err != nil {
		t.Fatal(err)
	}
	if st.Action != UpdateRepair {
		t.Fatalf("emptied leaf took %v (evidence %+v), want forced repair", st.Action, st)
	}
	fresh := wantFreshEqual(t, pl, x, y, z, pts.Q, p)
	wantExact(t, updSolve(t, pl, k), updSolve(t, fresh, k), "emptied-leaf solve")
}

func TestUpdateSingleParticle(t *testing.T) {
	one := &particle.Set{X: []float64{0.5}, Y: []float64{0.25}, Z: []float64{0.75}, Q: []float64{2}}
	k := kernel.Coulomb{}
	pl, err := NewPlan(one, one, updParams())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := pl.update(one.X, one.Y, one.Z); err != nil || st.Action != UpdateRefit {
		t.Fatalf("stationary single particle: action %v, err %v", st.Action, err)
	}
	if st, err := pl.update([]float64{3}, []float64{-1}, []float64{9}); err != nil {
		t.Fatalf("moving single particle: %v (action %v)", err, st.Action)
	}
	phi := updSolve(t, pl, k)
	if len(phi) != 1 || phi[0] != 0 {
		t.Fatalf("single self-interaction phi = %v, want [0]", phi)
	}
}

func TestUpdateAllCoincident(t *testing.T) {
	n := 64
	pts := &particle.Set{
		X: make([]float64, n), Y: make([]float64, n),
		Z: make([]float64, n), Q: make([]float64, n),
	}
	for i := range pts.Q {
		pts.X[i], pts.Y[i], pts.Z[i] = 0.25, 0.25, 0.25
		pts.Q[i] = float64(i + 1)
	}
	k := kernel.Coulomb{}
	p := updParams()
	pl, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := range x {
		x[i], y[i], z[i] = 0.7, 0.7, 0.7
	}
	st, err := pl.update(x, y, z)
	if err != nil {
		t.Fatalf("coincident update: %v (action %v)", err, st.Action)
	}
	for i, v := range updSolve(t, pl, k) {
		if v != 0 {
			t.Fatalf("coincident particles phi[%d] = %g, want 0 (G(x,x)=0)", i, v)
		}
	}
}

func TestUpdateErrors(t *testing.T) {
	pts := testParticles(t, 300, 20)
	k := kernel.Coulomb{}

	t.Run("non-morton plan", func(t *testing.T) {
		p := updParams()
		p.Morton = false
		pl, err := NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.update(pts.X, pts.Y, pts.Z); err == nil {
			t.Fatal("Update on a midpoint plan did not fail")
		}
	})

	t.Run("distinct targets", func(t *testing.T) {
		tg := testParticles(t, 300, 21)
		if _, err := NewPlan(tg, pts, updParams()); err == nil {
			t.Fatal("NewPlan built a Morton plan whose targets are not at the sources' positions")
		}
	})

	t.Run("bad input leaves plan untouched", func(t *testing.T) {
		pl, err := NewPlan(pts, pts, updParams())
		if err != nil {
			t.Fatal(err)
		}
		before := updSolve(t, pl, k)
		if _, err := pl.update(pts.X[:10], pts.Y, pts.Z); err == nil {
			t.Fatal("short coordinate slice did not fail")
		}
		bad := append([]float64(nil), pts.X...)
		bad[7] = math.NaN()
		if _, err := pl.update(bad, pts.Y, pts.Z); err == nil {
			t.Fatal("NaN coordinate did not fail")
		}
		bad[7] = math.Inf(1)
		if _, err := pl.update(bad, pts.Y, pts.Z); err == nil {
			t.Fatal("Inf coordinate did not fail")
		}
		if pl.gen != 0 {
			t.Fatalf("failed updates bumped generation to %d", pl.gen)
		}
		wantExact(t, updSolve(t, pl, k), before, "solve after rejected updates")
	})
}

// TestUpdateStaleChargeStatePanics pins that every reader of a charge
// state refuses stale charges instead of evaluating them: a state created
// before a Plan.Update (a refit keeps the node count, so nothing else
// would notice), and a state lacking modified charges an approximation
// reads (never charged, or charged only where EvaluateSampled needed them).
func TestUpdateStaleChargeStatePanics(t *testing.T) {
	pts := testParticles(t, 400, 22)
	p := updParams()
	p.Degree = 2 // 27-point grids, so the sampled cases have approximations to charge
	k := kernel.RegularizedCoulomb{Eps: 0.01}
	n := pts.Len()
	buf := func() []float64 { return make([]float64, n) }
	for _, c := range []struct {
		name   string
		update bool                      // Update the plan after creating (and charging) the state
		charge func(*Plan, *ChargeState) // how the state is charged before the update
		use    func(*Plan, *ChargeState) // the call that must panic
	}{
		{"Compute", true, nil, func(pl *Plan, st *ChargeState) { st.Compute(pl, 0) }},
		{"RunComputeState", true, computeAll, func(pl *Plan, st *ChargeState) { RunComputeState(pl, k, st, buf(), 0) }},
		{"RunFieldsState", true, computeAll, func(pl *Plan, st *ChargeState) { RunFieldsState(pl, k, st, buf(), buf(), buf(), buf(), 0) }},
		{"RunComputeState uncharged", false, nil, func(pl *Plan, st *ChargeState) { RunComputeState(pl, k, st, buf(), 0) }},
		{"RunComputeState sampled", false, sampleOne, func(pl *Plan, st *ChargeState) { RunComputeState(pl, k, st, buf(), 0) }},
		{"RunFieldsState sampled", false, sampleOne, func(pl *Plan, st *ChargeState) { RunFieldsState(pl, k, st, buf(), buf(), buf(), buf(), 0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			pl, err := NewPlan(pts, pts, p)
			if err != nil {
				t.Fatal(err)
			}
			st := NewChargeState(pl)
			if c.charge != nil {
				c.charge(pl, st)
			}
			if c.update {
				if _, err := pl.update(pts.X, pts.Y, pts.Z); err != nil {
					t.Fatal(err)
				}
			}
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "core: charge state") {
					t.Fatalf("%s on a stale charge state: recovered %v, want the charge-state panic", c.name, r)
				}
			}()
			c.use(pl, st)
		})
	}
}

func computeAll(pl *Plan, st *ChargeState) { st.Compute(pl, 0) }

// sampleOne charges st only where a one-target EvaluateSampled reads it,
// sampling the first target of the first batch with approximations.
func sampleOne(pl *Plan, st *ChargeState) {
	bi := 0
	for bi < len(pl.Lists.Approx)-1 && len(pl.Lists.Approx[bi]) == 0 {
		bi++
	}
	target := pl.Batches.Perm[pl.Batches.Batches[bi].Lo]
	if _, err := EvaluateSampled(pl, kernel.Coulomb{}, st, []int{target}); err != nil {
		panic(err)
	}
	if n := countCharged(st); n == 0 || n == len(st.Qhat) {
		panic("sampleOne: want a partly charged state")
	}
}

func TestUpdateTraceSpans(t *testing.T) {
	n := 1500
	pts := testParticles(t, n, 23)
	pl, err := NewPlan(pts, pts, updParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()

	// One refit (zero drift), then one forced non-refit (teleport a block).
	if _, err := pl.Update(pts.X, pts.Y, pts.Z, tr); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	x := append([]float64(nil), pts.X...)
	for m := 0; m < 30; m++ {
		x[rng.Intn(n)] = 0.05 + 0.9*rng.Float64()
	}
	st, err := pl.Update(x, pts.Y, pts.Z, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Action == UpdateRefit {
		t.Fatalf("teleported block still refit: %+v", st)
	}

	spans := map[string]int{}
	var lastEnd float64
	for _, s := range tr.Spans() {
		spans[s.Name]++
		if s.Start < lastEnd {
			t.Fatalf("update spans overlap on the modeled clock: %q starts at %g before %g", s.Name, s.Start, lastEnd)
		}
		lastEnd = s.End
	}
	if spans[SpanUpdateRefit] != 1 {
		t.Fatalf("got %d %s spans, want 1 (all spans: %v)", spans[SpanUpdateRefit], SpanUpdateRefit, spans)
	}
	if spans[SpanUpdateRepair]+spans[SpanUpdateRebuild] != 1 {
		t.Fatalf("got no repair/rebuild span: %v", spans)
	}
	counters := map[string]float64{}
	for _, c := range tr.Counters() {
		counters[c.Name] = c.Value
	}
	if counters[SpanUpdateRefit] != 1 {
		t.Fatalf("refit counter = %g, want 1", counters[SpanUpdateRefit])
	}
	if counters[CounterUpdateDrifters] != float64(st.Drifters) {
		t.Fatalf("drifter counter = %g, want %d", counters[CounterUpdateDrifters], st.Drifters)
	}
	if counters[CounterUpdateOutOfTolerance] != float64(st.OutOfTolerance) {
		t.Fatalf("tolerance counter = %g, want %d", counters[CounterUpdateOutOfTolerance], st.OutOfTolerance)
	}
}

// TestUpdateRefitDemotionCharges pins both outcomes of the refit's MAC
// pass on a jiggle that flips approximation pairs. Under the default
// RefitMaxMACDemotions the refit stands with the failing pairs demoted to
// direct summation: the lists change while the node count does not, and a
// state charged only where the new lists read must still evaluate exactly
// like one charged everywhere. With the threshold at 0 the same pass
// demotes the same pairs and the update falls through, so the repair or
// rebuild must replace the demoted lists: the plan must equal a fresh
// NewPlan. FuzzPlanUpdate cannot reach the first path: its 600-particle
// plans hold fewer than 100 approximation pairs, so RefitMaxMACDemotions
// (1%) admits none.
func TestUpdateRefitDemotionCharges(t *testing.T) {
	const n = 2000
	pts := testParticles(t, n, 2)
	p := Params{Theta: 0.7, Degree: 3, LeafSize: 40, BatchSize: 40, Morton: true}
	x := append([]float64(nil), pts.X...)
	y := append([]float64(nil), pts.Y...)
	z := append([]float64(nil), pts.Z...)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] += 1e-3 * (2*rng.Float64() - 1)
		y[i] += 1e-3 * (2*rng.Float64() - 1)
		z[i] += 1e-3 * (2*rng.Float64() - 1)
	}
	defer func(f float64) { RefitMaxMACDemotions = f }(RefitMaxMACDemotions)
	demoted := 0
	for _, maxDemotions := range []float64{RefitMaxMACDemotions, 0} {
		RefitMaxMACDemotions = maxDemotions
		pl, err := NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := pl.update(x, y, z)
		if err != nil {
			t.Fatal(err)
		}
		if maxDemotions == 0 {
			if st.Action == UpdateRefit || st.MACViolations != demoted {
				t.Fatalf("threshold 0 gave %v with %d MAC violations; want a fall-through with %d", st.Action, st.MACViolations, demoted)
			}
			wantFreshEqual(t, pl, x, y, z, pts.Q, p)
			continue
		}
		if st.Action != UpdateRefit || st.MACViolations == 0 {
			t.Fatalf("jiggle gave %v with %d MAC violations; want a refit that demotes", st.Action, st.MACViolations)
		}
		demoted = st.MACViolations
		k := kernel.Coulomb{}
		wantExact(t, SolvePotentials(pl, k, nanState(pl), 0),
			SolvePotentials(pl, k, chargedState(pl, 0), 0), "refit with demotions, unread slots NaN")
	}
}

// FuzzPlanUpdate drives a small Morton plan through a drift sequence, one
// step per byte of steps: the low two bits pick the drift (0 jiggles every
// particle, 1 teleports a few inside the domain, 2 teleports half of them,
// 3 stretches the domain) and the high six bits its size. batch picks the
// plan's BatchSize, 20, 40 or 100 against LeafSize 40, so the batches are
// cut from the source order below, at and above its leaves. After a repair
// or rebuild the plan must equal a fresh NewPlan at the same positions and
// solve bit-identically to it; after a refit every batch must bound its
// moved targets and every cached approximation must pass the MAC: a
// second DemoteFailingApprox moves no pair. After every step, a solve on a
// state charged only where the lists read must equal one charged
// everywhere. The seeds reach all three paths at every batch size.
func FuzzPlanUpdate(f *testing.F) {
	for batch := uint8(0); batch < 3; batch++ {
		f.Add(int64(1), batch, []byte{0x00, 0x40, 0xfc}) // jiggles: refit
		f.Add(int64(2), batch, []byte{0x01, 0x05})       // a few teleports: repair
		f.Add(int64(3), batch, []byte{0x02, 0x00, 0x03}) // half teleported, then a stretch: rebuild
	}
	f.Fuzz(func(t *testing.T, seed int64, batch uint8, steps []byte) {
		const n = 600
		if len(steps) > 4 {
			steps = steps[:4]
		}
		pts := testParticles(t, n, seed)
		p := Params{Theta: 0.7, Degree: 3, LeafSize: 40, BatchSize: []int{20, 40, 100}[batch%3], Morton: true}
		pl, err := NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), pts.X...)
		y := append([]float64(nil), pts.Y...)
		z := append([]float64(nil), pts.Z...)
		rng := rand.New(rand.NewSource(seed))
		teleport := func(i int) {
			x[i] = 0.05 + 0.9*rng.Float64()
			y[i] = 0.05 + 0.9*rng.Float64()
			z[i] = 0.05 + 0.9*rng.Float64()
		}
		k := kernel.Coulomb{}
		for s, b := range steps {
			size := float64(b>>2+1) / 64 // (0, 1]
			switch b & 3 {
			case 0:
				for i := range x {
					x[i] += 1e-3 * size * (2*rng.Float64() - 1)
					y[i] += 1e-3 * size * (2*rng.Float64() - 1)
					z[i] += 1e-3 * size * (2*rng.Float64() - 1)
				}
			case 1:
				for m := 0; m < 1+int(10*size); m++ {
					teleport(rng.Intn(n))
				}
			case 2:
				for i := 0; i < n; i += 2 {
					teleport(i)
				}
			case 3:
				for i := range x {
					x[i] *= 1 + size
					y[i] *= 1 + size
					z[i] *= 1 + size
				}
			}
			st, err := pl.update(x, y, z)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("batch %d, step %d (%#02x, %v, %d MAC violations)", p.BatchSize, s, b, st.Action, st.MACViolations)
			t.Log(what)
			// The charge pass follows the updated lists: a state charged
			// only where they read must evaluate exactly like one charged
			// everywhere, so a slot a demoted pair no longer reads may
			// stay NaN, and none another pair still reads may.
			wantExact(t, SolvePotentials(pl, k, nanState(pl), 0),
				SolvePotentials(pl, k, chargedState(pl, 0), 0), what+", unread slots NaN")
			if st.Action == UpdateRefit {
				for bi, bt := range pl.Batches.Batches {
					box := pl.Batches.Targets.Slice(bt.Lo, bt.Hi).Bounds()
					if bt.Center != box.Center() || bt.Radius != box.Radius() {
						t.Fatalf("%s: batch %d geometry does not bound its moved targets", what, bi)
					}
				}
				if v := interaction.DemoteFailingApprox(pl.Lists, pl.Batches, pl.Sources, p.MAC(), 1); v != 0 {
					t.Fatalf("%s: %d approximation pairs fail the MAC", what, v)
				}
				continue
			}
			fresh := wantFreshEqual(t, pl, x, y, z, pts.Q, p)
			wantExact(t, updSolve(t, pl, k), updSolve(t, fresh, k), what)
		}
	})
}
