package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"barytree/internal/chebyshev"
	"barytree/internal/particle"
	"barytree/internal/tree"
)

// TestNewClusterDataWorkersDeterministic pins the arena rebuild: grids,
// flattened points and the modified charges a charge state computes over
// them must be value-identical for every worker count.
func TestNewClusterDataWorkersDeterministic(t *testing.T) {
	pts := particle.UniformCube(5000, rand.New(rand.NewSource(6)))
	tr := tree.Build(pts, 200)
	want := NewClusterDataWorkers(tr, 4, 1)
	wantQ := chargedState(&Plan{Sources: tr, Clusters: want}, 1).Qhat
	for _, w := range []int{2, 3, 7, runtime.GOMAXPROCS(0)} {
		got := NewClusterDataWorkers(tr, 4, w)
		gotQ := chargedState(&Plan{Sources: tr, Clusters: got}, w).Qhat
		if !reflect.DeepEqual(want.Grids, got.Grids) {
			t.Fatalf("workers=%d: grids differ", w)
		}
		if !reflect.DeepEqual(want.PX, got.PX) || !reflect.DeepEqual(want.PY, got.PY) ||
			!reflect.DeepEqual(want.PZ, got.PZ) {
			t.Fatalf("workers=%d: flattened points differ", w)
		}
		if !reflect.DeepEqual(wantQ, gotQ) {
			t.Fatalf("workers=%d: modified charges differ", w)
		}
	}
}

// TestNewClusterDataMatchesLegacyLayout pins the arena layout against the
// reference per-node construction chebyshev.NewGrid3D + FlattenedPoints.
func TestNewClusterDataMatchesLegacyLayout(t *testing.T) {
	pts := particle.GaussianBlob(3000, 0.4, rand.New(rand.NewSource(8)))
	tr := tree.Build(pts, 150)
	cd := NewClusterData(tr, 5)
	for i := range tr.Nodes {
		g := chebyshev.NewGrid3D(5, tr.Nodes[i].Box)
		px, py, pz := g.FlattenedPoints()
		if !reflect.DeepEqual(cd.PX[i], px) || !reflect.DeepEqual(cd.PY[i], py) ||
			!reflect.DeepEqual(cd.PZ[i], pz) {
			t.Fatalf("node %d: arena points differ from per-node layout", i)
		}
		for d := 0; d < 3; d++ {
			if !reflect.DeepEqual(cd.Grids[i].Dims[d].Points, g.Dims[d].Points) {
				t.Fatalf("node %d dim %d: grid points differ", i, d)
			}
		}
	}
}

// TestClusterDataQhatArenaReuse pins the steady-state allocation contract
// of the charge store: invalidating a state's modified charges (as
// Solver.UpdateCharges does) and recomputing must land every node back on
// its arena slot, not a fresh allocation.
func TestClusterDataQhatArenaReuse(t *testing.T) {
	pts := particle.UniformCube(2000, rand.New(rand.NewSource(12)))
	tr := tree.Build(pts, 100)
	pl := &Plan{Sources: tr, Clusters: NewClusterData(tr, 3)}
	st := chargedState(pl, 0)
	first := make([]*float64, len(st.Qhat))
	for i, q := range st.Qhat {
		first[i] = &q[0]
	}
	st.Invalidate()
	st.Compute(pl, 0)
	for i, q := range st.Qhat {
		if &q[0] != first[i] {
			t.Fatalf("node %d: recompute allocated a new qhat buffer", i)
		}
	}
}

// TestNewClusterDataEmptyTree pins the empty-input behavior: no nodes, no
// arenas, no panic regardless of degree (the old per-node path never
// validated degree on an empty tree).
func TestNewClusterDataEmptyTree(t *testing.T) {
	tr := tree.Build(particle.NewSet(0), 10)
	cd := NewClusterData(tr, 0) // degree 0 must not panic with zero nodes
	if len(cd.Grids) != 0 || len(cd.Qhat) != 0 {
		t.Fatalf("empty tree produced %d grids", len(cd.Grids))
	}
}

// TestLevelSweepNeedsLevels pins the level sweep's guard: a tree whose
// nodes do not carry their depth, as a deserialized remote tree does
// not, panics on a parallel pass instead of charging a parent in the
// same round as its children. One worker sweeps in reverse preorder and
// needs no levels.
func TestLevelSweepNeedsLevels(t *testing.T) {
	pts := particle.UniformCube(3000, rand.New(rand.NewSource(8)))
	tr := tree.Build(pts, 40)
	pl := &Plan{Sources: tr, Clusters: NewClusterData(tr, 3)}
	want := chargedState(pl, 1)
	for i := range tr.Nodes {
		tr.Nodes[i].Level = 0
	}
	for ni, qh := range chargedState(pl, 1).Qhat {
		wantExact(t, qh, want.Qhat[ni], "serial pass without levels")
	}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "at level") {
			t.Fatalf("a parallel pass over a tree without levels recovered %v, want the level guard's panic", r)
		}
	}()
	chargedState(pl, 2)
}
