package let

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"barytree/internal/geom"
	"barytree/internal/interaction"
	"barytree/internal/mpisim"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/rcb"
	"barytree/internal/tree"
)

func TestSerializeRoundTrip(t *testing.T) {
	pts := particle.UniformCube(2000, rand.New(rand.NewSource(1)))
	tr := tree.Build(pts, 100)
	geomArr, topoArr, childArr := SerializeTree(tr)
	v, err := Deserialize(geomArr, topoArr, childArr)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Nodes) != len(tr.Nodes) {
		t.Fatalf("decoded %d nodes, want %d", len(v.Nodes), len(tr.Nodes))
	}
	if v.Particles != nil || v.Perm != nil {
		t.Fatal("decoded tree carries particles")
	}
	for i := range tr.Nodes {
		nd, got := &tr.Nodes[i], &v.Nodes[i]
		if got.Center != nd.Center {
			t.Fatalf("node %d center mismatch", i)
		}
		if got.Radius != nd.Radius {
			t.Fatalf("node %d radius mismatch", i)
		}
		if got.Box != nd.Box {
			t.Fatalf("node %d box mismatch", i)
		}
		if got.Lo != nd.Lo || got.Hi != nd.Hi {
			t.Fatalf("node %d range mismatch", i)
		}
		if got.IsLeaf() != nd.IsLeaf() {
			t.Fatalf("node %d leaf flag mismatch", i)
		}
		if len(got.Children) != len(nd.Children) {
			t.Fatalf("node %d has %d decoded children, want %d", i, len(got.Children), len(nd.Children))
		}
		for j := range got.Children {
			if got.Children[j] != nd.Children[j] {
				t.Fatalf("node %d child %d mismatch", i, j)
			}
		}
	}
}

func TestDeserializeRejectsCorruptArrays(t *testing.T) {
	pts := particle.UniformCube(200, rand.New(rand.NewSource(2)))
	tr := tree.Build(pts, 50)
	geomArr, topoArr, childArr := SerializeTree(tr)

	if _, err := Deserialize(geomArr[:len(geomArr)-1], topoArr, childArr); err == nil {
		t.Error("truncated geometry accepted")
	}
	if _, err := Deserialize(geomArr, topoArr[:len(topoArr)-1], childArr); err == nil {
		t.Error("truncated topology accepted")
	}
	if len(childArr) > 0 {
		bad := append([]int64{}, childArr...)
		bad[0] = 9999
		if _, err := Deserialize(geomArr, topoArr, bad); err == nil {
			t.Error("out-of-range child accepted")
		}
	}
}

// TestDeserializeRejectsNegativeRanges pins the checks that keep corrupt
// topology from reaching a slice expression or a fetch size: a negative
// or overflowing child range and a negative particle range are errors.
func TestDeserializeRejectsNegativeRanges(t *testing.T) {
	pts := particle.UniformCube(200, rand.New(rand.NewSource(2)))
	geomArr, topoArr, childArr := SerializeTree(tree.Build(pts, 50))
	for _, c := range []struct {
		field int
		value int64
	}{{0, -1}, {1, -1}, {0, math.MaxInt64}, {2, -1}, {3, -1}} {
		bad := append([]int64{}, topoArr...)
		bad[c.field] = c.value
		if _, err := Deserialize(geomArr, bad, childArr); err == nil {
			t.Errorf("topology word %d = %d accepted", c.field, c.value)
		}
	}
}

func TestInterleaveParticles(t *testing.T) {
	s := particle.NewSet(2)
	s.Append(1, 2, 3, 4)
	s.Append(5, 6, 7, 8)
	got := InterleaveParticles(s)
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleave = %v", got)
		}
	}
}

func TestFlattenCharges(t *testing.T) {
	qhat := [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}, {9, 10, 11, 12, 13, 14, 15, 16}}
	flat, err := FlattenCharges(qhat, 1) // (1+1)^3 = 8 per node
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 16 || flat[0] != 1 || flat[8] != 9 {
		t.Fatalf("flat = %v", flat)
	}
	if _, err := FlattenCharges([][]float64{{1, 2}}, 1); err == nil {
		t.Error("wrong-size node accepted")
	}
}

// buildWorkers is the worker count buildLETFixture passes to BuildAsync; the
// determinism test overrides it to pin worker-count independence, every
// other test runs with the default.
var buildWorkers = 0

// buildLETFixture partitions particles over `ranks` ranks, builds local
// trees, exposes windows with synthetic charges, and builds each rank's
// LET, calling check on each rank's pieces.
func buildLETFixture(t *testing.T, n, ranks int, mac interaction.MAC,
	check func(r *mpisim.Rank, l *LET, locals []*particle.Set, trees []*tree.Tree)) {
	t.Helper()
	pts := particle.UniformCube(n, rand.New(rand.NewSource(7)))
	dec := rcb.Partition(pts, ranks, pts.Bounds())
	locals := make([]*particle.Set, ranks)
	trees := make([]*tree.Tree, ranks)
	for r := 0; r < ranks; r++ {
		locals[r], _ = dec.Extract(pts, r)
		trees[r] = tree.Build(locals[r], 60)
	}
	np := mac.InterpPoints()
	err := mpisim.Run(ranks, perfmodel.CometIB(), func(r *mpisim.Rank) error {
		tr := trees[r.ID()]
		// Synthetic charges: value encodes (rank, node, point) so fetches
		// can be verified exactly.
		flat := make([]float64, len(tr.Nodes)*np)
		for ni := range tr.Nodes {
			for p := 0; p < np; p++ {
				flat[ni*np+p] = float64(r.ID()*1_000_000 + ni*1000 + p)
			}
		}
		wins := Expose(r, tr, flat, mac.Degree)
		r.Barrier()
		batches := tree.BuildBatches(locals[r.ID()], 60)
		l, f, err := BuildAsync(r, wins, batches, mac, buildWorkers)
		if err != nil {
			return err
		}
		f.WaitAll()
		check(r, l, locals, trees)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLETFetchesExactCharges(t *testing.T) {
	mac := interaction.MAC{Theta: 0.7, Degree: 2}
	np := mac.InterpPoints()
	buildLETFixture(t, 4000, 4, mac, func(r *mpisim.Rank, l *LET, locals []*particle.Set, trees []*tree.Tree) {
		for i, home := range l.ClusterHome {
			rank, node := int(home[0]), int(home[1])
			if rank == r.ID() {
				t.Errorf("rank %d fetched its own cluster %d", r.ID(), node)
			}
			for p := 0; p < np; p++ {
				want := float64(rank*1_000_000 + node*1000 + p)
				if l.ClusterQhat[i][p] != want {
					t.Fatalf("rank %d cluster %d charge %d = %g, want %g",
						r.ID(), i, p, l.ClusterQhat[i][p], want)
				}
			}
		}
	})
}

func TestLETFetchesExactParticles(t *testing.T) {
	mac := interaction.MAC{Theta: 0.7, Degree: 2}
	buildLETFixture(t, 4000, 3, mac, func(r *mpisim.Rank, l *LET, locals []*particle.Set, trees []*tree.Tree) {
		for i, home := range l.LeafHome {
			rank, node := int(home[0]), int(home[1])
			nd := &trees[rank].Nodes[node]
			leaf := l.Leaves[i]
			if leaf.Len() != nd.Count() {
				t.Fatalf("leaf %d has %d particles, want %d", i, leaf.Len(), nd.Count())
			}
			src := trees[rank].Particles
			for j := 0; j < leaf.Len(); j++ {
				if leaf.X[j] != src.X[nd.Lo+j] || leaf.Q[j] != src.Q[nd.Lo+j] {
					t.Fatalf("leaf %d particle %d mismatch", i, j)
				}
			}
		}
	})
}

func TestLETClusterPointsMatchRemoteGrids(t *testing.T) {
	mac := interaction.MAC{Theta: 0.7, Degree: 3}
	buildLETFixture(t, 3000, 2, mac, func(r *mpisim.Rank, l *LET, locals []*particle.Set, trees []*tree.Tree) {
		for i, home := range l.ClusterHome {
			rank, node := int(home[0]), int(home[1])
			box := trees[rank].Nodes[node].Box
			// First point is the box's (Hi,Hi,Hi) corner (Chebyshev k=0).
			if l.ClusterPX[i][0] != box.Hi.X || l.ClusterPY[i][0] != box.Hi.Y || l.ClusterPZ[i][0] != box.Hi.Z {
				t.Fatalf("cluster %d first point (%g,%g,%g) != box corner %v",
					i, l.ClusterPX[i][0], l.ClusterPY[i][0], l.ClusterPZ[i][0], box.Hi)
			}
			np := mac.InterpPoints()
			last := np - 1
			if l.ClusterPX[i][last] != box.Lo.X {
				t.Fatalf("cluster %d last point not at box corner", i)
			}
		}
	})
}

func TestLETListsSatisfyMAC(t *testing.T) {
	mac := interaction.MAC{Theta: 0.6, Degree: 2}
	buildLETFixture(t, 5000, 4, mac, func(r *mpisim.Rank, l *LET, locals []*particle.Set, trees []*tree.Tree) {
		batches := tree.BuildBatches(locals[r.ID()], 60)
		for bi := range batches.Batches {
			b := &batches.Batches[bi]
			for _, li := range l.Approx[bi] {
				// Reconstruct cluster center from home reference.
				home := l.ClusterHome[li]
				nd := &trees[home[0]].Nodes[home[1]]
				dist := b.Center.Dist(nd.Center)
				if b.Radius+nd.Radius >= mac.Theta*dist {
					t.Fatalf("rank %d batch %d approximates remote cluster violating MAC", r.ID(), bi)
				}
			}
		}
	})
}

func TestLETCoversAllRemoteParticles(t *testing.T) {
	// For each batch, remote direct leaves + remote approx clusters must
	// cover every remote particle exactly once (completeness of the LET).
	mac := interaction.MAC{Theta: 0.7, Degree: 2}
	ranks := 3
	buildLETFixture(t, 3000, ranks, mac, func(r *mpisim.Rank, l *LET, locals []*particle.Set, trees []*tree.Tree) {
		var remoteTotal int
		for q := 0; q < ranks; q++ {
			if q != r.ID() {
				remoteTotal += locals[q].Len()
			}
		}
		batches := tree.BuildBatches(locals[r.ID()], 60)
		for bi := range batches.Batches {
			covered := 0
			for _, li := range l.Direct[bi] {
				covered += l.Leaves[li].Len()
			}
			for _, li := range l.Approx[bi] {
				home := l.ClusterHome[li]
				covered += trees[home[0]].Nodes[home[1]].Count()
			}
			if covered != remoteTotal {
				t.Fatalf("rank %d batch %d covers %d remote particles, want %d",
					r.ID(), bi, covered, remoteTotal)
			}
		}
	})
}

func TestLETDedupAcrossBatches(t *testing.T) {
	// A cluster needed by several batches must be fetched exactly once.
	mac := interaction.MAC{Theta: 0.7, Degree: 2}
	buildLETFixture(t, 4000, 2, mac, func(r *mpisim.Rank, l *LET, locals []*particle.Set, trees []*tree.Tree) {
		seen := map[[2]int32]bool{}
		for _, h := range l.ClusterHome {
			if seen[h] {
				t.Fatalf("cluster %v fetched twice", h)
			}
			seen[h] = true
		}
		seenLeaf := map[[2]int32]bool{}
		for _, h := range l.LeafHome {
			if seenLeaf[h] {
				t.Fatalf("leaf %v fetched twice", h)
			}
			seenLeaf[h] = true
		}
	})
}

func TestLETBytesPositive(t *testing.T) {
	mac := interaction.MAC{Theta: 0.7, Degree: 2}
	buildLETFixture(t, 3000, 2, mac, func(r *mpisim.Rank, l *LET, locals []*particle.Set, trees []*tree.Tree) {
		if l.Bytes() <= 0 {
			t.Errorf("rank %d LET bytes = %d", r.ID(), l.Bytes())
		}
		if l.Stats.MACTests == 0 {
			t.Errorf("rank %d performed no remote MAC tests", r.ID())
		}
	})
}

func TestGeomBoxRoundTripThroughWindow(t *testing.T) {
	// Guard against stride mismatches: a hand-built 1-node tree must
	// round-trip exactly.
	s := particle.NewSet(3)
	s.Append(0, 0, 0, 1)
	s.Append(1, 2, 3, -1)
	s.Append(0.5, 1, 1.5, 0.25)
	tr := tree.Build(s, 10)
	g, tp, ch := SerializeTree(tr)
	if len(g) != GeomStride || len(tp) != TopoStride || len(ch) != 0 {
		t.Fatalf("unexpected array sizes %d %d %d", len(g), len(tp), len(ch))
	}
	v, err := Deserialize(g, tp, ch)
	if err != nil {
		t.Fatal(err)
	}
	want := geom.BoundingBox(s.X, s.Y, s.Z)
	if v.Nodes[0].Box != want {
		t.Fatalf("box %v, want %v", v.Nodes[0].Box, want)
	}
}

// TestLETBuildWorkersDeterministic pins the bit-identity contract of the
// parallel LET traversal: the full LET — fetched clusters/leaves, their
// first-encounter ordering, per-batch lists and Stats — must deep-equal the
// serial construction for every worker count.
func TestLETBuildWorkersDeterministic(t *testing.T) {
	mac := interaction.MAC{Theta: 0.7, Degree: 2}
	collect := func(workers int) map[int]*LET {
		old := buildWorkers
		buildWorkers = workers
		defer func() { buildWorkers = old }()
		lets := make(map[int]*LET)
		var mu sync.Mutex
		buildLETFixture(t, 4000, 3, mac, func(r *mpisim.Rank, l *LET, locals []*particle.Set, trees []*tree.Tree) {
			mu.Lock()
			lets[r.ID()] = l
			mu.Unlock()
		})
		return lets
	}
	want := collect(1)
	for _, w := range []int{2, 3, 4, 7, runtime.GOMAXPROCS(0)} {
		got := collect(w)
		for rank, l := range want {
			if !reflect.DeepEqual(l, got[rank]) {
				t.Fatalf("workers=%d: rank %d LET differs from serial", w, rank)
			}
		}
	}
}
