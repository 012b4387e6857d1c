package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/tree"
)

// nanState returns a fresh state for pl whose every modified-charge slot
// holds NaN, so a reader that touches a slot the charge pass skipped
// poisons its output.
func nanState(pl *Plan) *ChargeState {
	st := NewChargeState(pl)
	for _, qh := range st.Qhat {
		for i := range qh {
			qh[i] = math.NaN()
		}
	}
	return st
}

// wantSameFields asserts two field results are byte-identical.
func wantSameFields(t *testing.T, got, want *FieldResult, what string) {
	t.Helper()
	wantExact(t, got.Phi, want.Phi, what+" phi")
	wantExact(t, got.GX, want.GX, what+" gx")
	wantExact(t, got.GY, want.GY, what+" gy")
	wantExact(t, got.GZ, want.GZ, what+" gz")
}

// TestUnreadChargesNeverRead proves that the charge pass skips only
// modified charges no reader touches: every host driver run on a state
// whose unread slots hold NaN returns exactly (==) what it returns with
// every node charged. RunCPU and RunCPUFields build their own state, so
// there the skipped slots hold the arena's zeros instead; they too must
// match the every-node-charged run exactly.
func TestUnreadChargesNeverRead(t *testing.T) {
	sources := testParticles(t, 2500, 71)
	other := testParticles(t, 1500, 72)
	p := Params{Theta: 0.7, Degree: 4, LeafSize: 100, BatchSize: 100}
	for _, geom := range []struct {
		name    string
		targets *particle.Set
	}{{"targets=sources", sources}, {"targets!=sources", other}} {
		pl, err := NewPlan(geom.targets, sources, p)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, geom.targets.Len())
		for i := range all {
			all[i] = i
		}
		for _, k := range []kernel.GradKernel{
			kernel.Coulomb{},
			kernel.Yukawa{Kappa: 0.5},
			kernel.RegularizedCoulomb{Eps: 0.02},
		} {
			t.Run(geom.name+"/"+k.Name(), func(t *testing.T) {
				full := chargedState(pl, 1) // only read below
				for _, w := range []int{1, 2, 0} {
					st := nanState(pl)
					got := SolvePotentials(pl, k, st, w)
					if n := countCharged(st); n == 0 || n == len(st.Qhat) {
						t.Fatalf("charged %d of %d nodes; want a strict, non-empty subset", n, len(st.Qhat))
					}
					want := SolvePotentials(pl, k, full, w)
					wantExact(t, got, want, "SolvePotentials")
					wantExact(t, RunCPU(pl, k, CPUOptions{Workers: w}).Phi, want, "RunCPU")
					wantSameFields(t, SolveFields(pl, k, nanState(pl), w), SolveFields(pl, k, full, w), "SolveFields")
				}
				wantSameFields(t, RunCPUFields(pl, k, CPUOptions{}), SolveFields(pl, k, full, 0), "RunCPUFields")
				got, err := EvaluateSampled(pl, k, nanState(pl), all)
				if err != nil {
					t.Fatal(err)
				}
				want, err := EvaluateSampled(pl, k, full, all)
				if err != nil {
					t.Fatal(err)
				}
				wantExact(t, got, want, "EvaluateSampled")
			})
		}
	}
}

// chargeClosure returns the nodes a charge pass must charge for every
// node that reads selects to hold its modified charges: each read node
// and, recursively, the children of each one cd charges from its children.
func chargeClosure(cd *ClusterData, tr *tree.Tree, reads []bool) []bool {
	want := make([]bool, len(reads))
	var mark func(i int32)
	mark = func(i int32) {
		want[i] = true
		if cd.fromChildren(&tr.Nodes[i]) {
			for _, c := range tr.Nodes[i].Children {
				mark(c)
			}
		}
	}
	for i, r := range reads {
		if r {
			mark(int32(i))
		}
	}
	return want
}

// TestChargesMaskIndependent pins that a node's modified charges do not
// depend on which nodes a pass charges: under random masks, each applied
// to a fresh state whose slots hold NaN and, in turn, to one state that
// keeps what earlier masks charged (as EvaluateSampled does), every
// charged node equals (==) the full pass, and a fresh state charges
// exactly the mask's closure. Both trees mix internal nodes charged from
// their children with internal nodes charged from their particles.
func TestChargesMaskIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	pts := particle.Plummer(3000, 1, rng)
	mort, _ := tree.BuildMortonWorkers(pts, 50, 0)
	for _, tc := range []struct {
		name   string
		tr     *tree.Tree
		degree int
	}{{"midpoint-leaf10-n10", tree.Build(pts, 10), 10}, {"morton-leaf50-n4", mort, 4}} {
		pl := &Plan{Sources: tc.tr, Clusters: NewClusterData(tc.tr, tc.degree)}
		var fromParticles, fromChildren int // internal nodes
		for i := range tc.tr.Nodes {
			switch nd := &tc.tr.Nodes[i]; {
			case nd.IsLeaf():
			case pl.Clusters.fromChildren(nd):
				fromChildren++
			default:
				fromParticles++
			}
		}
		if fromParticles == 0 || fromChildren == 0 {
			t.Fatalf("%s: %d internal nodes charged from their particles, %d from their children; want both",
				tc.name, fromParticles, fromChildren)
		}
		full := chargedState(pl, 1)
		for _, w := range []int{1, 2} {
			kept := nanState(pl)
			for trial := 0; trial < 6; trial++ {
				need := make([]bool, len(tc.tr.Nodes))
				for i := range need {
					need[i] = rng.Intn(10) == 0
				}
				closure := chargeClosure(pl.Clusters, tc.tr, need)
				fresh := nanState(pl)
				for _, st := range []*ChargeState{fresh, kept} {
					st.chargeNodes(pl, append([]bool(nil), need...), w)
					for i, c := range st.charged {
						if c != closure[i] && (st == fresh || !c) {
							t.Fatalf("%s workers=%d trial %d: node %d charged %v, in the mask's closure %v", tc.name, w, trial, i, c, closure[i])
						}
						if c {
							wantExact(t, st.Qhat[i], full.Qhat[i], fmt.Sprintf("%s workers=%d trial %d node %d", tc.name, w, trial, i))
						}
					}
				}
				if n, want := countCharged(kept), countCharged(full); n == want {
					break
				}
			}
		}
	}
}

// TestChargePassChargesApproxNodes pins which nodes the charge pass
// charges: none when every pair is direct, and on a probe-like geometry
// exactly the closure of the nodes on some batch's approximation list.
func TestChargePassChargesApproxNodes(t *testing.T) {
	t.Run("all-direct", func(t *testing.T) {
		// The serve-open-2k workload's plan: (n+1)^3 = 343 points exceed
		// NL = 320 particles, so every pair is direct.
		pts := particle.UniformCube(2000, rand.New(rand.NewSource(73)))
		pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 6, LeafSize: 320, BatchSize: 320})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Lists.Stats.ApproxPairs != 0 {
			t.Fatalf("plan has %d approximation pairs, want none", pl.Lists.Stats.ApproxPairs)
		}
		st := NewChargeState(pl)
		if flops := st.Compute(pl, 0); flops != 0 {
			t.Errorf("Compute with nothing to charge returned %g flops", flops)
		}
		if n := countCharged(st); n != 0 {
			t.Fatalf("charged %d nodes, want none", n)
		}
		wantExact(t, SolvePotentials(pl, kernel.Coulomb{}, st, 0),
			SolvePotentials(pl, kernel.Coulomb{}, chargedState(pl, 0), 0), "all-direct solve")
	})
	t.Run("probe", func(t *testing.T) {
		// Far probes on the faces of the sources' bounding cube, as in the
		// probe-sparse-200k workload.
		rng := rand.New(rand.NewSource(74))
		sources := particle.Plummer(8000, 1, rng)
		b := sources.Bounds()
		c := b.Center()
		sz := b.Size()
		h := math.Max(sz.X, math.Max(sz.Y, sz.Z)) / 2
		targets := particle.NewSet(300)
		for i := 0; i < 300; i++ {
			p := [3]float64{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
			face := rng.Intn(6)
			p[face/2] = float64(2*(face%2) - 1)
			targets.Append(c.X+h*p[0], c.Y+h*p[1], c.Z+h*p[2], 0)
		}
		pl, err := NewPlan(targets, sources, Params{Theta: 0.8, Degree: 4, LeafSize: 200, BatchSize: 10})
		if err != nil {
			t.Fatal(err)
		}
		reads := make([]bool, len(pl.Sources.Nodes))
		nreads := 0
		for _, approx := range pl.Lists.Approx {
			for _, ci := range approx {
				if !reads[ci] {
					reads[ci] = true
					nreads++
				}
			}
		}
		want := chargeClosure(pl.Clusters, pl.Sources, reads)
		st := NewChargeState(pl)
		if flops, full := st.Compute(pl, 0), pl.Clusters.TotalChargeWork(pl.Sources); flops != full {
			t.Errorf("Compute returned %g flops, want the full pass's %g", flops, full)
		}
		for i, c := range st.charged {
			if c != want[i] {
				t.Fatalf("node %d: charged %v, read %v, in the closure of the read nodes %v", i, c, reads[i], want[i])
			}
		}
		if n := countCharged(st); n == 0 || n == len(st.Qhat) || n == nreads {
			t.Fatalf("charged %d of %d nodes, %d of them read; want a strict, non-empty subset larger than the read set",
				n, len(st.Qhat), nreads)
		}
		if flops := st.Compute(pl, 0); flops != 0 {
			t.Errorf("Compute on a charged state returned %g flops, want a no-op", flops)
		}
	})
}

// TestWarmRechargeAllocs pins that a warm recharge allocates a small
// number of objects however large the clusters are: no per-node or
// size-dependent scratch. The list-less plans charge every node, root
// included, so the largest charged cluster holds every particle.
func TestWarmRechargeAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		pts := particle.UniformCube(n, rand.New(rand.NewSource(75)))
		tr := tree.Build(pts, 500)
		pl := &Plan{Sources: tr, Clusters: NewClusterData(tr, 3)}
		st := NewChargeState(pl)
		st.Compute(pl, 1)
		return testing.AllocsPerRun(3, func() {
			st.Invalidate()
			st.Compute(pl, 1)
		})
	}
	small, large := allocs(2000), allocs(50_000)
	if small != large {
		t.Errorf("warm recharge allocates %v objects with a 2k-particle root, %v with a 50k one", small, large)
	}
	if large > 3 {
		t.Errorf("warm recharge allocates %v objects, want at most 3 (the flags, the worker closure and the arena of its rows and the transfer)", large)
	}
}
