// Package tree builds the hierarchical source-cluster octree and the
// localized target batches of the barycentric Lagrange treecode (Section 2.4
// of the paper).
//
// The root cluster is the minimal bounding box containing all source
// particles. A cluster is recursively divided at the midpoint of its
// bounding box; only dimensions whose side exceeds (longest side)/sqrt(2)
// are bisected, so a division produces 2, 4 or 8 children and children stay
// near-cubic even when recursive coordinate bisection hands a rank a skewed
// subdomain (Section 3.1). Recursion stops when a cluster holds LeafSize or
// fewer particles. Every node's box is shrunk to the minimal bounding box of
// its own particles, which is what guarantees that some particle coordinates
// coincide with Chebyshev interpolation-point coordinates (Section 2.3).
//
// Target batches are produced by the same partitioning routine applied to
// the target particles with bound BatchSize; when targets and sources are
// the same particles and BatchSize == LeafSize the batches coincide with the
// source-tree leaves, as in all of the paper's experiments.
//
// Construction is parallel (BuildWorkers / BuildBatchesWorkers) and
// bit-identical to the serial build for every worker count. One recursion
// serves both: a parallel build runs it over the top of the tree, recording
// child ranges below a size cutoff as subtree tasks instead of recursing,
// builds the tasks concurrently over their disjoint particle ranges, and
// splices the finished subtrees back into the serial construction order.
// See docs/performance.md ("The setup phase") for the design and the
// bit-identity argument.
package tree

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"barytree/internal/geom"
	"barytree/internal/particle"
	"barytree/internal/pool"
	"barytree/internal/trace"
)

// MaxAspectRatio is the sqrt(2) bound from the paper: a dimension is only
// bisected when doing so cannot leave children with aspect ratio beyond this
// bound relative to the longest side.
var MaxAspectRatio = math.Sqrt2

// tasksPerWorker controls subtree-task granularity of a parallel build:
// child ranges at or below n/(tasksPerWorker*workers) particles become
// independent subtree tasks, so each worker gets several tasks to balance
// load. A variable so the package tests can lower it and exercise
// multi-task construction on small inputs.
var tasksPerWorker = 4

// Node is one cluster in the source tree (or one internal node of the batch
// partition). Particle indices refer to the tree-ordered particle set and
// occupy the contiguous range [Lo, Hi).
type Node struct {
	Box      geom.Box // minimal bounding box of the node's particles
	Center   geom.Vec3
	Radius   float64 // half box diagonal, the r_C of the MAC
	Lo, Hi   int     // particle range in tree order
	Parent   int32   // index of parent node, -1 for the root
	Children []int32 // indices of child nodes; empty for leaves
	Level    int     // depth, root = 0
}

// Count returns the number of particles in the node.
func (nd *Node) Count() int { return nd.Hi - nd.Lo }

// IsLeaf reports whether the node has no children.
func (nd *Node) IsLeaf() bool { return len(nd.Children) == 0 }

// BuildStats counts the work done during tree construction; the performance
// model converts these into modeled setup-phase time. The counters describe
// the partitioning algorithm, not its host execution, so they are identical
// for every worker count.
type BuildStats struct {
	Nodes         int // nodes created
	Leaves        int // leaf nodes
	ParticleMoves int // particle swaps during partitioning
	ParticleScans int // particle visits during box shrinking + partitioning
	MaxDepth      int
}

// TraceSpan emits a build-category span for the construction these stats
// describe, annotated with the node/leaf/depth counts and the particle
// traffic the performance model charges for it. Construction itself runs
// on the host wall clock, so the modeled interval [start, end] is supplied
// by the caller, which owns the rank's virtual clock. Safe on a nil tracer.
func (s BuildStats) TraceSpan(tr *trace.Tracer, name string, rank int, start, end float64) {
	tr.Span(name, trace.CatBuild, rank, trace.TrackHost, start, end,
		trace.A("nodes", s.Nodes), trace.A("leaves", s.Leaves),
		trace.A("max_depth", s.MaxDepth),
		trace.A("particle_scans", s.ParticleScans),
		trace.A("particle_moves", s.ParticleMoves))
}

// add accumulates o into s. All fields are sums (or a max) of per-node
// counts, so accumulation in any grouping reproduces the serial totals
// exactly.
func (s *BuildStats) add(o BuildStats) {
	s.Nodes += o.Nodes
	s.Leaves += o.Leaves
	s.ParticleMoves += o.ParticleMoves
	s.ParticleScans += o.ParticleScans
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
}

// Tree is the cluster hierarchy over a (re-ordered) particle set.
type Tree struct {
	Nodes     []Node
	Particles *particle.Set        // tree-ordered deep copy of the input
	Perm      particle.Permutation // Perm[treeIndex] = original index
	LeafSize  int
	Stats     BuildStats
}

// Root returns the index of the root node (always 0 for a non-empty tree).
func (t *Tree) Root() int { return 0 }

// Leaves returns the indices of all leaf nodes in construction order. The
// result is sized exactly from Stats.Leaves up front; the fill loop is
// allocation-free (LeavesInto).
func (t *Tree) Leaves() []int32 {
	return t.LeavesInto(make([]int32, t.Stats.Leaves))
}

// LeavesInto fills dst (which must have length Stats.Leaves) with the leaf
// node indices in construction order and returns it.
//
//hot:path
func (t *Tree) LeavesInto(dst []int32) []int32 {
	k := 0
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() {
			dst[k] = int32(i)
			k++
		}
	}
	return dst
}

// Build constructs the cluster tree over src with the given leaf size using
// all available cores; it is BuildWorkers with the default worker count.
// The input set is not modified; the tree holds a reordered copy plus the
// permutation back to input order. Build panics if leafSize < 1 or src is
// nil and returns an empty tree for an empty input.
func Build(src *particle.Set, leafSize int) *Tree {
	return BuildWorkers(src, leafSize, 0)
}

// BuildWorkers is Build with an explicit worker bound (workers <= 0 selects
// GOMAXPROCS, 1 is the serial build). The output — Nodes, Perm, the
// reordered Particles and Stats — is bit-identical for every worker count;
// workers only bounds the host goroutines used for construction.
//
// The argument checks run before any path is chosen, so the parallel path
// can never be entered with a nil particle set or an invalid leaf size:
// both paths fail with the same panic, and the empty-input and single-node
// cases never spawn a goroutine.
func BuildWorkers(src *particle.Set, leafSize, workers int) *Tree {
	if leafSize < 1 {
		panic(fmt.Sprintf("tree: leaf size must be >= 1, got %d", leafSize))
	}
	if src == nil {
		panic("tree: nil particle set")
	}
	t := &Tree{
		Particles: src.Clone(),
		Perm:      particle.Identity(src.Len()),
		LeafSize:  leafSize,
	}
	n := src.Len()
	if n == 0 {
		return t
	}
	b := &builder{p: t.Particles, perm: t.Perm, leafSize: leafSize}
	workers = pool.Workers(n, workers)
	if workers == 1 || n <= leafSize {
		// Serial: one worker, or a tree that is a single leaf.
		b.nodes = make([]Node, 0, nodeCapHint(n, leafSize))
		b.build(-1, 0, n, 0)
	} else {
		b.cutoff = max(n/(tasksPerWorker*workers), leafSize)
		b.build(-1, 0, n, 0)
		b.runTasks(workers)
	}
	t.Nodes = b.nodes
	t.Stats = b.stats
	return t
}

// nodeCapHint estimates the node count for preallocation: leaves hold at
// least leafSize/2^3 particles on typical distributions, and internal nodes
// are bounded by the leaf count. An undershoot only costs slice growth.
func nodeCapHint(n, leafSize int) int {
	return 4*(n/leafSize) + 8
}

// builder holds the mutable state of one construction. The particle set and
// permutation are shared by every subtree task (tasks own disjoint index
// ranges); nodes, stats and tasks are private to the builder.
type builder struct {
	p        *particle.Set
	perm     particle.Permutation
	leafSize int
	// cutoff is the task threshold of a parallel build: child ranges of at
	// most cutoff particles are recorded as subtree tasks instead of being
	// recursed into. Zero (the serial build and every task) records none.
	cutoff int

	nodes []Node
	stats BuildStats
	tasks []subtreeTask
}

// subtreeTask is a child range the top of a parallel build handed off: one
// worker builds it serially into its own node slice, indexed from 0, which
// splice then moves into place.
type subtreeTask struct {
	lo, hi, level int
	nodes         []Node
	stats         BuildStats
}

// build creates the node covering particle range [lo, hi) and recursively
// partitions it. It returns the index of the created node. The recursion
// order is the construction order; a child recorded as subtree task k is
// stored as the child index ^k (negative) until splice replaces it.
func (b *builder) build(parent int32, lo, hi, level int) int32 {
	idx := int32(len(b.nodes))
	box := boundsRange(b.p, lo, hi)
	b.stats.ParticleScans += hi - lo
	b.nodes = append(b.nodes, Node{
		Box:    box,
		Center: box.Center(),
		Radius: box.Radius(),
		Lo:     lo,
		Hi:     hi,
		Parent: parent,
		Level:  level,
	})
	b.stats.Nodes++
	if level > b.stats.MaxDepth {
		b.stats.MaxDepth = level
	}
	if hi-lo <= b.leafSize {
		b.stats.Leaves++
		return idx
	}

	dims := splitDims(box)
	var ranges [8][2]int
	nr := b.partition(lo, hi, box, dims, &ranges)
	if nr <= 1 {
		// All particles landed in one cell (coincident points): stop.
		b.stats.Leaves++
		return idx
	}
	children := make([]int32, 0, nr)
	for _, r := range ranges[:nr] {
		if r[1]-r[0] <= b.cutoff {
			b.tasks = append(b.tasks, subtreeTask{lo: r[0], hi: r[1], level: level + 1})
			children = append(children, ^int32(len(b.tasks)-1))
			continue
		}
		children = append(children, b.build(idx, r[0], r[1], level+1))
	}
	b.nodes[idx].Children = children
	return idx
}

// runTasks builds the recorded subtree tasks on up to workers goroutines
// and splices them into the serial construction order. Tasks vary in
// size, so workers pull from a shared counter rather than owning fixed
// ranges; the schedule does not affect the output, since every task
// writes only its own node slice and its disjoint particle range.
func (b *builder) runTasks(workers int) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < min(workers, len(b.tasks)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ti := int(cursor.Add(1)) - 1
				if ti >= len(b.tasks) {
					return
				}
				t := &b.tasks[ti]
				tb := builder{
					p:        b.p,
					perm:     b.perm,
					leafSize: b.leafSize,
					nodes:    make([]Node, 0, nodeCapHint(t.hi-t.lo, b.leafSize)),
				}
				tb.build(-1, t.lo, t.hi, t.level)
				t.nodes, t.stats = tb.nodes, tb.stats
			}
		}()
	}
	wg.Wait()

	for i := range b.tasks {
		b.stats.add(b.tasks[i].stats)
	}
	out := make([]Node, 0, b.stats.Nodes)
	b.nodes = b.splice(out, 0, -1)
	if len(b.nodes) != b.stats.Nodes {
		panic("tree: internal error: node numbering mismatch")
	}
}

// splice appends top node ti of a parallel build to out, with parent as
// its final parent index, followed by its subtrees in preorder: top
// children recursively, each task's node slice with its task-local
// indices shifted by the position it lands at.
func (b *builder) splice(out []Node, ti, parent int32) []Node {
	idx := int32(len(out))
	nd := b.nodes[ti]
	nd.Parent = parent
	out = append(out, nd)
	for ci, c := range nd.Children {
		nd.Children[ci] = int32(len(out))
		if c >= 0 {
			out = b.splice(out, c, idx)
			continue
		}
		base := int32(len(out))
		for j, tn := range b.tasks[^c].nodes {
			if j == 0 {
				tn.Parent = idx
			} else {
				tn.Parent += base
			}
			for k := range tn.Children {
				tn.Children[k] += base
			}
			out = append(out, tn)
		}
	}
	return out
}

// boundsRange is the minimal-bounding-box scan over [lo, hi), which must be
// non-empty. Plain comparisons keep the first-encountered value on ties
// (only observable for inputs mixing -0 and +0), a rule combineBox shares.
func boundsRange(p *particle.Set, lo, hi int) geom.Box {
	xs, ys, zs := p.X[lo:hi], p.Y[lo:hi], p.Z[lo:hi]
	box := geom.Box{
		Lo: geom.Vec3{X: xs[0], Y: ys[0], Z: zs[0]},
		Hi: geom.Vec3{X: xs[0], Y: ys[0], Z: zs[0]},
	}
	for i := 1; i < len(xs); i++ {
		x, y, z := xs[i], ys[i], zs[i]
		if x < box.Lo.X {
			box.Lo.X = x
		}
		if x > box.Hi.X {
			box.Hi.X = x
		}
		if y < box.Lo.Y {
			box.Lo.Y = y
		}
		if y > box.Hi.Y {
			box.Hi.Y = y
		}
		if z < box.Lo.Z {
			box.Lo.Z = z
		}
		if z > box.Hi.Z {
			box.Hi.Z = z
		}
	}
	return box
}

// combineBox extends dst to cover c with the same first-wins strict
// comparisons as boundsRange (math.Min and math.Max would differ only for
// inputs mixing -0 and +0). The bottom-up refit
// (RefitBoxesWorkers) combines child boxes left to right through this
// helper, which is what keeps its boxes bit-identical to a scan of the
// underlying particles.
func combineBox(dst *geom.Box, c geom.Box) {
	if c.Lo.X < dst.Lo.X {
		dst.Lo.X = c.Lo.X
	}
	if c.Hi.X > dst.Hi.X {
		dst.Hi.X = c.Hi.X
	}
	if c.Lo.Y < dst.Lo.Y {
		dst.Lo.Y = c.Lo.Y
	}
	if c.Hi.Y > dst.Hi.Y {
		dst.Hi.Y = c.Hi.Y
	}
	if c.Lo.Z < dst.Lo.Z {
		dst.Lo.Z = c.Lo.Z
	}
	if c.Hi.Z > dst.Hi.Z {
		dst.Hi.Z = c.Hi.Z
	}
}

// splitDims selects the dimensions to bisect: every dimension whose side
// exceeds (longest side)/MaxAspectRatio. The longest dimension is always
// selected.
func splitDims(box geom.Box) []int {
	long, _ := box.LongestSide()
	threshold := long / MaxAspectRatio
	var dims []int
	s := box.Size()
	for d, side := range [3]float64{s.X, s.Y, s.Z} {
		if side >= threshold && side > 0 {
			dims = append(dims, d)
		}
	}
	if len(dims) == 0 {
		// Degenerate box (all sides zero): no split possible.
		return nil
	}
	return dims
}

// partition splits the particle range [lo, hi) at the box midpoints of the
// chosen dimensions, producing up to 2^len(dims) contiguous sub-ranges. It
// fills out with the non-empty ranges in cell order and returns their
// count.
func (b *builder) partition(lo, hi int, box geom.Box, dims []int, out *[8][2]int) int {
	out[0] = [2]int{lo, hi}
	n := 1
	var tmp [8][2]int
	for _, d := range dims {
		mid := (box.Lo.Component(d) + box.Hi.Component(d)) / 2
		t := 0
		for i := 0; i < n; i++ {
			r0, r1 := out[i][0], out[i][1]
			m := b.hoare(r0, r1, d, mid)
			if m > r0 {
				tmp[t] = [2]int{r0, m}
				t++
			}
			if m < r1 {
				tmp[t] = [2]int{m, r1}
				t++
			}
		}
		*out = tmp
		n = t
	}
	return n
}

// coord returns the coordinate slice of dimension d.
func (b *builder) coord(d int) []float64 {
	switch d {
	case 1:
		return b.p.Y
	case 2:
		return b.p.Z
	}
	return b.p.X
}

// swap exchanges particles i and j together with their permutation entries.
func (b *builder) swap(i, j int) {
	b.p.Swap(i, j)
	b.perm[i], b.perm[j] = b.perm[j], b.perm[i]
}

// hoare partitions particles [lo, hi) so that those with coordinate d < mid
// come first; it returns the index of the first particle with coordinate
// >= mid.
func (b *builder) hoare(lo, hi, d int, mid float64) int {
	coord := b.coord(d)
	i, j := lo, hi
	for i < j {
		for i < j && coord[i] < mid {
			i++
		}
		for i < j && coord[j-1] >= mid {
			j--
		}
		if i < j-1 {
			b.swap(i, j-1)
			b.stats.ParticleMoves++
			i++
			j--
		}
	}
	b.stats.ParticleScans += hi - lo
	return i
}

// Validate checks the structural invariants of the tree and returns an error
// describing the first violation found. It is used by tests and by the
// distributed driver's debug mode.
func (t *Tree) Validate() error {
	if len(t.Nodes) == 0 {
		if t.Particles.Len() != 0 {
			return fmt.Errorf("tree: no nodes but %d particles", t.Particles.Len())
		}
		return nil
	}
	if !t.Perm.Valid() {
		return fmt.Errorf("tree: permutation is not a bijection")
	}
	root := &t.Nodes[0]
	if root.Lo != 0 || root.Hi != t.Particles.Len() {
		return fmt.Errorf("tree: root covers [%d,%d), want [0,%d)", root.Lo, root.Hi, t.Particles.Len())
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.Count() <= 0 {
			return fmt.Errorf("tree: node %d is empty", i)
		}
		for j := nd.Lo; j < nd.Hi; j++ {
			if !nd.Box.Contains(t.Particles.At(j)) {
				return fmt.Errorf("tree: node %d box %v does not contain particle %d at %v",
					i, nd.Box, j, t.Particles.At(j))
			}
		}
		if nd.IsLeaf() {
			continue
		}
		// Children must tile the parent's range contiguously.
		pos := nd.Lo
		for _, c := range nd.Children {
			ch := &t.Nodes[c]
			if ch.Parent != int32(i) {
				return fmt.Errorf("tree: node %d has wrong parent %d, want %d", c, ch.Parent, i)
			}
			if ch.Lo != pos {
				return fmt.Errorf("tree: child %d of node %d starts at %d, want %d", c, i, ch.Lo, pos)
			}
			if !nd.Box.ContainsBox(ch.Box) {
				return fmt.Errorf("tree: child %d box %v escapes parent %d box %v", c, ch.Box, i, nd.Box)
			}
			pos = ch.Hi
		}
		if pos != nd.Hi {
			return fmt.Errorf("tree: children of node %d end at %d, want %d", i, pos, nd.Hi)
		}
	}
	return nil
}

// Batch is a geometrically localized group of target particles (Section 2.4).
// Indices refer to the batch-ordered target set and occupy [Lo, Hi).
type Batch struct {
	Center geom.Vec3
	Radius float64 // the r_B of the MAC
	Lo, Hi int
}

// Count returns the number of targets in the batch.
func (b *Batch) Count() int { return b.Hi - b.Lo }

// BatchSet holds the target batches and the batch-ordered target particles.
type BatchSet struct {
	Batches   []Batch
	Targets   *particle.Set
	Perm      particle.Permutation // Perm[batchOrderIndex] = original index
	BatchSize int
	Stats     BuildStats
}

// BuildBatches partitions the target particles into localized batches of at
// most batchSize targets using the same recursive partitioning routine as
// the source tree: the batches are exactly the leaves of a cluster tree with
// leaf size batchSize. It is BuildBatchesWorkers with the default worker
// count.
func BuildBatches(targets *particle.Set, batchSize int) *BatchSet {
	return BuildBatchesWorkers(targets, batchSize, 0)
}

// BuildBatchesWorkers is BuildBatches with an explicit worker bound
// (workers <= 0 selects GOMAXPROCS, 1 is the serial build). Like
// BuildWorkers, the output is bit-identical for every worker count.
func BuildBatchesWorkers(targets *particle.Set, batchSize, workers int) *BatchSet {
	return BatchSetFromTree(BuildWorkers(targets, batchSize, workers))
}
