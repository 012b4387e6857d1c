package tree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"barytree/internal/particle"
)

// mortonTestSets returns the particle distributions the Morton tests sweep.
func mortonTestSets(n int, rng *rand.Rand) map[string]*particle.Set {
	return map[string]*particle.Set{
		"uniform":  particle.UniformCube(n, rng),
		"gaussian": particle.GaussianBlob(n, 0.3, rng),
		"plummer":  particle.Plummer(n, 1.0, rng),
	}
}

func TestMortonBuildValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, src := range mortonTestSets(5000, rng) {
		for _, leafSize := range []int{1, 7, 64, 500, 10000} {
			tr, mi := BuildMortonWorkers(src, leafSize, 0)
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s leaf=%d: %v", name, leafSize, err)
			}
			if len(mi.Codes) != src.Len() {
				t.Fatalf("%s leaf=%d: %d codes for %d particles", name, leafSize, len(mi.Codes), src.Len())
			}
			if len(mi.CellPrefix) != len(tr.Nodes) || len(mi.CellShift) != len(tr.Nodes) {
				t.Fatalf("%s leaf=%d: cell arrays sized %d/%d for %d nodes",
					name, leafSize, len(mi.CellPrefix), len(mi.CellShift), len(tr.Nodes))
			}
			// Codes sorted, ties broken by original index.
			for i := 1; i < len(mi.Codes); i++ {
				if mi.Codes[i] < mi.Codes[i-1] ||
					(mi.Codes[i] == mi.Codes[i-1] && tr.Perm[i] < tr.Perm[i-1]) {
					t.Fatalf("%s leaf=%d: order violated at %d", name, leafSize, i)
				}
			}
			// Particles really are the gathered input, codes match positions.
			for i := 0; i < tr.Particles.Len(); i++ {
				o := tr.Perm[i]
				if tr.Particles.X[i] != src.X[o] || tr.Particles.Y[i] != src.Y[o] ||
					tr.Particles.Z[i] != src.Z[o] || tr.Particles.Q[i] != src.Q[o] {
					t.Fatalf("%s leaf=%d: particle %d does not match input %d", name, leafSize, i, o)
				}
				if mi.Codes[i] != MortonEncode(mi.Domain, src.X[o], src.Y[o], src.Z[o]) {
					t.Fatalf("%s leaf=%d: stale code at %d", name, leafSize, i)
				}
			}
			// Every particle is inside its leaf's cell (zero drifters).
			if d := mi.Drifters(tr, mi.Codes, nil); len(d) != 0 {
				t.Fatalf("%s leaf=%d: fresh build reports %d drifters", name, leafSize, len(d))
			}
			// And within tolerance of its leaf box.
			if out := mi.OutOfTolerance(tr, 0); out != 0 {
				t.Fatalf("%s leaf=%d: fresh build reports %d out of tolerance", name, leafSize, out)
			}
		}
	}
}

func TestMortonBuildWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := particle.GaussianBlob(4000, 0.4, rng)
	ref, refIdx := BuildMortonWorkers(src, 40, 1)
	for _, w := range []int{2, 3, 8} {
		tr, mi := BuildMortonWorkers(src, 40, w)
		if !reflect.DeepEqual(ref, tr) {
			t.Fatalf("workers=%d: tree differs from serial build", w)
		}
		if !reflect.DeepEqual(refIdx, mi) {
			t.Fatalf("workers=%d: index differs from serial build", w)
		}
	}
}

func TestMortonRefitIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := particle.UniformCube(3000, rng)
	tr, _ := BuildMortonWorkers(src, 32, 0)
	before := make([]Node, len(tr.Nodes))
	copy(before, tr.Nodes)
	tr.RefitBoxesWorkers(0)
	if !reflect.DeepEqual(before, tr.Nodes) {
		t.Fatal("refit with unchanged coordinates altered node boxes")
	}
}

// TestMortonCut pins MortonCut against the builds it stands in for: a cut
// at the tree's own leaf size reproduces its nodes and statistics over
// the tree's own particle storage, and a cut at any leaf size equals a
// fresh BuildMortonWorkers there.
func TestMortonCut(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for name, src := range mortonTestSets(3000, rng) {
		tr, mi := BuildMortonWorkers(src, 64, 0)
		self := tr.MortonCut(mi, tr.LeafSize, 0)
		if !reflect.DeepEqual(self.Nodes, tr.Nodes) || self.Stats != tr.Stats {
			t.Fatalf("%s: cut at the leaf size differs from the tree", name)
		}
		if self.Particles != tr.Particles || &self.Perm[0] != &tr.Perm[0] {
			t.Fatalf("%s: cut does not share the tree's particles and permutation", name)
		}
		for _, leaf := range []int{1, 7, 200, 5000} {
			want, _ := BuildMortonWorkers(src, leaf, 1)
			if got := tr.MortonCut(mi, leaf, 2); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: cut at leaf %d differs from a fresh build", name, leaf)
			}
		}
	}
	empty, mi := BuildMortonWorkers(&particle.Set{}, 4, 0)
	if c := empty.MortonCut(mi, 2, 0); len(c.Nodes) != 0 || c.Stats != (BuildStats{}) {
		t.Fatalf("cut of an empty tree has %d nodes, stats %+v", len(c.Nodes), c.Stats)
	}
}

// TestMortonRepairMatchesFreshBuild is the canonicity pin behind
// Plan.Update's repair path: after drifting a subset of the particles,
// detecting drifters and repairing must reproduce a fresh Morton build of
// the moved particles (in original input order) bit for bit — nodes, boxes,
// permutation, codes, cells and statistics.
func TestMortonRepairMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for name, src := range mortonTestSets(4000, rng) {
		tr, mi := BuildMortonWorkers(src, 50, 0)

		// Drift ~2% of the particles far enough to change octants; jitter
		// the rest slightly (stayers whose sub-cell bits change). Clamping
		// into the original bounds keeps the snapped domain unchanged.
		b := src.Bounds()
		moved := src.Clone()
		for i := 0; i < moved.Len(); i++ {
			amp := 1e-4
			if rng.Intn(50) == 0 {
				amp = 0.4
			}
			moved.X[i] = clampF(moved.X[i]+amp*(rng.Float64()-0.5), b.Lo.X, b.Hi.X)
			moved.Y[i] = clampF(moved.Y[i]+amp*(rng.Float64()-0.5), b.Lo.Y, b.Hi.Y)
			moved.Z[i] = clampF(moved.Z[i]+amp*(rng.Float64()-0.5), b.Lo.Z, b.Hi.Z)
		}
		if SnapMortonDomain(moved.Bounds()) != mi.Domain {
			t.Fatalf("%s: drift changed the snapped domain; adjust the test motion", name)
		}

		// Scatter the moved positions into tree order, as Plan.Update does.
		for ti, oi := range tr.Perm {
			tr.Particles.X[ti] = moved.X[oi]
			tr.Particles.Y[ti] = moved.Y[oi]
			tr.Particles.Z[ti] = moved.Z[oi]
		}
		codes := mi.EncodeInto(nil, tr.Particles, 0)
		drifters := mi.Drifters(tr, codes, nil)
		if len(drifters) == 0 {
			t.Fatalf("%s: no drifters; the test motion is too small", name)
		}
		tr.MortonRepair(mi, codes, drifters, 0)

		fresh, freshIdx := BuildMortonWorkers(moved, 50, 0)
		if !reflect.DeepEqual(fresh, tr) {
			t.Fatalf("%s: repaired tree differs from fresh build", name)
		}
		if !reflect.DeepEqual(freshIdx, mi) {
			t.Fatalf("%s: repaired index differs from fresh build", name)
		}
	}
}

// TestMortonRepairZeroDrifters: repair with an empty drifter list is still
// the canonical re-sort (stayers may have changed sub-cell bits).
func TestMortonRepairZeroDrifters(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	src := particle.UniformCube(2000, rng)
	tr, mi := BuildMortonWorkers(src, 100, 0)
	moved := src.Clone()
	for i := 0; i < moved.Len(); i++ {
		moved.X[i] += 1e-7 * rng.Float64()
	}
	for ti, oi := range tr.Perm {
		tr.Particles.X[ti] = moved.X[oi]
		tr.Particles.Y[ti] = moved.Y[oi]
		tr.Particles.Z[ti] = moved.Z[oi]
	}
	codes := mi.EncodeInto(nil, tr.Particles, 0)
	drifters := mi.Drifters(tr, codes, nil)
	tr.MortonRepair(mi, codes, drifters, 0)
	fresh, freshIdx := BuildMortonWorkers(moved, 100, 0)
	if !reflect.DeepEqual(fresh, tr) || !reflect.DeepEqual(freshIdx, mi) {
		t.Fatal("zero-drifter repair differs from fresh build")
	}
}

func TestMortonDegenerate(t *testing.T) {
	// Empty set.
	tr, mi := BuildMortonWorkers(particle.NewSet(0), 10, 0)
	if len(tr.Nodes) != 0 || len(mi.Codes) != 0 {
		t.Fatal("empty build produced nodes")
	}
	tr.MortonRepair(mi, nil, nil, 0) // must not panic

	// Single particle.
	one := particle.NewSet(1)
	one.Append(0.3, -0.2, 0.9, 1.5)
	tr, mi = BuildMortonWorkers(one, 10, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 1 || tr.Nodes[0].Radius != 0 {
		t.Fatalf("single-particle tree has %d nodes, radius %v", len(tr.Nodes), tr.Nodes[0].Radius)
	}

	// All coincident: cannot split below one code; must terminate as a leaf.
	co := particle.NewSet(64)
	for i := 0; i < 64; i++ {
		co.Append(0.125, 0.25, -0.5, 1)
	}
	tr, mi = BuildMortonWorkers(co, 10, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 1 {
		t.Fatalf("coincident build produced %d nodes, want 1 leaf", len(tr.Nodes))
	}
	if s := mi.CellShift[0]; s != 0 {
		t.Fatalf("coincident leaf cell shift %d, want 0 (exact code)", s)
	}

	// Two points at opposite corners.
	two := particle.NewSet(2)
	two.Append(-1, -1, -1, 1)
	two.Append(1, 1, 1, -1)
	tr, _ = BuildMortonWorkers(two, 1, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Stats.Leaves != 2 {
		t.Fatalf("two-corner build has %d leaves, want 2", tr.Stats.Leaves)
	}
}

func TestSnapMortonDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	src := particle.UniformCube(500, rng)
	d := SnapMortonDomain(src.Bounds())
	side := d.Hi.X - d.Lo.X
	// Power-of-two side with 2x headroom over the ~2-wide cube.
	if side != 4 {
		t.Fatalf("side = %v, want 4", side)
	}
	if frac, _ := math.Frexp(side); frac != 0.5 {
		t.Fatalf("side %v is not a power of two", side)
	}
	// A set with genuine headroom (longest side well below the next
	// power-of-two boundary) keeps its domain bit-identical under drift.
	small := src.Clone()
	for i := range small.X {
		small.X[i] *= 0.6
		small.Y[i] *= 0.6
		small.Z[i] *= 0.6
	}
	ds := SnapMortonDomain(small.Bounds())
	for i := range small.X {
		small.X[i] += 0.05 * rng.Float64()
	}
	if SnapMortonDomain(small.Bounds()) != ds {
		t.Fatal("small drift changed the snapped domain")
	}
	// Large growth changes it.
	small.X[0] += 100
	if SnapMortonDomain(small.Bounds()) == ds {
		t.Fatal("large growth kept the snapped domain")
	}
	// Degenerate point: unit cube at the snapped corner.
	pt := particle.NewSet(1)
	pt.Append(0.7, 0.7, 0.7, 1)
	dp := SnapMortonDomain(pt.Bounds())
	if dp.Hi.X-dp.Lo.X != 1 {
		t.Fatalf("degenerate domain side = %v, want 1", dp.Hi.X-dp.Lo.X)
	}
}

func TestMortonEncodeOrder(t *testing.T) {
	// Codes must be monotone along each axis within the domain grid and
	// clamp outside it.
	d := SnapMortonDomain(particle.UniformCube(100, rand.New(rand.NewSource(17))).Bounds())
	prev := MortonEncode(d, d.Lo.X, d.Lo.Y, d.Lo.Z)
	for i := 1; i < 64; i++ {
		x := d.Lo.X + (d.Hi.X-d.Lo.X)*float64(i)/64
		c := MortonEncode(d, x, d.Lo.Y, d.Lo.Z)
		if c < prev {
			t.Fatalf("code not monotone along x at step %d", i)
		}
		prev = c
	}
	if MortonEncode(d, d.Lo.X-1e9, d.Lo.Y, d.Lo.Z) != 0 {
		t.Fatal("below-domain coordinate did not clamp to cell 0")
	}
	hi := MortonEncode(d, d.Hi.X+1e9, d.Lo.Y, d.Lo.Z)
	if hi != spread3(1<<MortonBits-1) {
		t.Fatal("above-domain coordinate did not clamp to the last cell")
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
