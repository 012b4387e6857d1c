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
// bit-identical to the serial build for every worker count. A parallel build
// keeps one job list that its workers drain from the root down: a range
// above a size cutoff is a job that becomes one node and pushes its child
// ranges as jobs, a range at or below it is a job that runs the serial
// recursion over its own particles, and once the list is drained the jobs
// are spliced into the serial construction order. Every partition is a
// block partition that makes exactly the swaps of the two-pointer Hoare
// loop, without its data-dependent branch. See docs/performance.md ("The
// setup phase") for the design and the bit-identity argument.
package tree

import (
	"fmt"
	"math"
	"sync"

	"barytree/internal/geom"
	"barytree/internal/particle"
	"barytree/internal/pool"
	"barytree/internal/trace"
)

// MaxAspectRatio is the sqrt(2) bound from the paper: a dimension is only
// bisected when doing so cannot leave children with aspect ratio beyond this
// bound relative to the longest side.
var MaxAspectRatio = math.Sqrt2

// tasksPerWorker controls the job granularity of a parallel build: ranges
// at or below n/(tasksPerWorker*workers) particles are built as whole
// subtrees, so each worker gets several of them to balance load. A
// variable so the package tests can lower it and exercise many jobs on
// small inputs.
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
// workers only bounds the host goroutines used for construction, and none
// outlives the call. Coordinates must not be NaN: the partition makes the
// two-pointer Hoare loop's swaps only while c < mid and c >= mid are
// complements, which a NaN breaks. The public entry points reject
// non-finite input first (particle.Set.Validate).
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
	workers = pool.Workers(n, workers)
	if workers == 1 || n <= leafSize {
		// Serial: one worker, or a tree that is a single leaf.
		b := &builder{p: t.Particles, perm: t.Perm, leafSize: leafSize,
			nodes: make([]Node, 0, nodeCapHint(n, leafSize))}
		b.build(-1, 0, n, 0)
		t.Nodes, t.Stats = b.nodes, b.stats
		return t
	}
	l := &jobList{p: t.Particles, perm: t.Perm, leafSize: leafSize,
		cutoff: max(n/(tasksPerWorker*workers), leafSize)}
	t.Nodes, t.Stats = l.run(n, workers)
	return t
}

// nodeCapHint estimates the node count for preallocation: leaves hold at
// least leafSize/2^3 particles on typical distributions, and internal nodes
// are bounded by the leaf count. An undershoot only costs slice growth.
func nodeCapHint(n, leafSize int) int {
	return 4*(n/leafSize) + 8
}

// builder holds the mutable state of one serial construction: the whole
// build, or one job of a parallel build. The particle set and permutation
// are shared by every job (jobs own disjoint index ranges); nodes and
// stats are private to the builder.
type builder struct {
	p        *particle.Set
	perm     particle.Permutation
	leafSize int

	nodes []Node
	stats BuildStats
}

// build creates the node covering particle range [lo, hi) and recursively
// partitions it. It returns the index of the created node. The recursion
// order is the construction order.
func (b *builder) build(parent int32, lo, hi, level int) int32 {
	var ranges [8][2]int
	nd, nr := b.split(parent, lo, hi, level, &ranges)
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, nd)
	if nr == 0 {
		return idx
	}
	children := make([]int32, nr)
	for k, r := range ranges[:nr] {
		children[k] = b.build(idx, r[0], r[1], level+1)
	}
	b.nodes[idx].Children = children
	return idx
}

// split returns the node covering particle range [lo, hi), counted in
// b.stats, and partitions its particles into the child ranges it fills
// out with; it returns their count, 0 for a leaf.
func (b *builder) split(parent int32, lo, hi, level int, out *[8][2]int) (Node, int) {
	box := boundsRange(b.p, lo, hi)
	b.stats.ParticleScans += hi - lo
	nd := Node{
		Box:    box,
		Center: box.Center(),
		Radius: box.Radius(),
		Lo:     lo,
		Hi:     hi,
		Parent: parent,
		Level:  level,
	}
	b.stats.Nodes++
	if level > b.stats.MaxDepth {
		b.stats.MaxDepth = level
	}
	if hi-lo <= b.leafSize {
		b.stats.Leaves++
		return nd, 0
	}
	nr := b.partition(lo, hi, box, splitDims(box), out)
	if nr <= 1 {
		// All particles landed in one cell (coincident points): stop.
		b.stats.Leaves++
		return nd, 0
	}
	return nd, nr
}

// jobList is the shared state of a parallel build: every job pushed so
// far (index 0 is the root), the stack of jobs not yet taken, and the
// count of jobs not yet finished. Workers take the most recent job first,
// so each descends depth-first into the ranges it just produced.
type jobList struct {
	p        *particle.Set
	perm     particle.Permutation
	leafSize int
	// cutoff splits the jobs: a range of more than cutoff particles is a
	// split job, one node whose child ranges become jobs; a range of at
	// most cutoff particles is a subtree job, built serially whole.
	cutoff int

	mu      sync.Mutex
	more    sync.Cond // broadcast when jobs are pushed or the last one finishes
	jobs    []job
	stack   []int32
	pending int
}

// job is one particle range of a parallel build and what its worker made
// of it: a split job's node, whose Children hold job indices until splice
// renumbers them, or a subtree job's nodes, indexed from 0.
type job struct {
	lo, hi, level int
	node          Node
	nodes         []Node
	stats         BuildStats
}

// run builds the tree over particles [0, n) on the caller and workers-1
// goroutines, all returning once the job list is drained, and splices the
// jobs into the serial construction order. The schedule does not affect
// the output: every job writes only its own node or node slice and its
// disjoint particle range, and the splice order is fixed by the jobs'
// ranges alone.
func (l *jobList) run(n, workers int) ([]Node, BuildStats) {
	l.more.L = &l.mu
	l.jobs = append(l.jobs, job{lo: 0, hi: n})
	l.stack = append(l.stack, 0)
	l.pending = 1
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.drain()
		}()
	}
	l.drain()
	wg.Wait()

	var stats BuildStats
	for i := range l.jobs {
		stats.add(l.jobs[i].stats)
	}
	nodes := l.splice(make([]Node, 0, stats.Nodes), 0, -1)
	if len(nodes) != stats.Nodes {
		panic("tree: internal error: node numbering mismatch")
	}
	return nodes, stats
}

// drain runs jobs until the list is empty and no job is running.
func (l *jobList) drain() {
	for {
		ji, jb, ok := l.take()
		if !ok {
			return
		}
		b := builder{p: l.p, perm: l.perm, leafSize: l.leafSize}
		var ranges [8][2]int
		nr := 0
		if jb.hi-jb.lo <= l.cutoff {
			b.nodes = make([]Node, 0, nodeCapHint(jb.hi-jb.lo, l.leafSize))
			b.build(-1, jb.lo, jb.hi, jb.level)
			jb.nodes = b.nodes
		} else {
			jb.node, nr = b.split(-1, jb.lo, jb.hi, jb.level, &ranges)
		}
		jb.stats = b.stats
		l.finish(ji, jb, ranges[:nr])
	}
}

// take pops the most recent job, waiting while the stack is empty but jobs
// are still running, since they may push more. It reports false once
// every job has finished.
func (l *jobList) take() (int32, job, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.stack) == 0 && l.pending > 0 {
		l.more.Wait()
	}
	if len(l.stack) == 0 {
		return 0, job{}, false
	}
	ji := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	return ji, l.jobs[ji], true
}

// finish stores job ji's result and pushes its child ranges as jobs, the
// first child on top of the stack.
func (l *jobList) finish(ji int32, jb job, children [][2]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(children) > 0 {
		jb.node.Children = make([]int32, len(children))
		for k, r := range children {
			jb.node.Children[k] = int32(len(l.jobs))
			l.jobs = append(l.jobs, job{lo: r[0], hi: r[1], level: jb.level + 1})
		}
		for k := len(children) - 1; k >= 0; k-- {
			l.stack = append(l.stack, jb.node.Children[k])
		}
	}
	l.jobs[ji] = jb
	l.pending += len(children) - 1
	if len(children) > 0 || l.pending == 0 {
		l.more.Broadcast()
	}
}

// splice appends job ji to out in serial preorder, with parent as the
// final index of its parent node: a split job's node followed by its
// child jobs, or a subtree job's nodes with their job-local indices
// shifted by the position they land at.
func (l *jobList) splice(out []Node, ji, parent int32) []Node {
	jb := &l.jobs[ji]
	base := int32(len(out))
	if jb.nodes != nil {
		for k, nd := range jb.nodes {
			if k == 0 {
				nd.Parent = parent
			} else {
				nd.Parent += base
			}
			for c := range nd.Children {
				nd.Children[c] += base
			}
			out = append(out, nd)
		}
		return out
	}
	nd := jb.node
	nd.Parent = parent
	out = append(out, nd)
	for k, c := range nd.Children {
		nd.Children[k] = int32(len(out))
		out = l.splice(out, c, base)
	}
	return out
}

// boundsRange is the minimal-bounding-box scan over [lo, hi), which must be
// non-empty. Plain comparisons keep the first-encountered value on ties
// (only observable for inputs mixing -0 and +0), a rule combineBox shares.
//
//hot:path
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
//
//hot:path
func (b *builder) partition(lo, hi int, box geom.Box, dims []int, out *[8][2]int) int {
	out[0] = [2]int{lo, hi}
	n := 1
	var tmp [8][2]int
	for _, d := range dims {
		mid := (box.Lo.Component(d) + box.Hi.Component(d)) / 2
		t := 0
		for i := 0; i < n; i++ {
			r0, r1 := out[i][0], out[i][1]
			m := b.bisect(r0, r1, d, mid)
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

// blockLen is the number of particles bisect classifies per block. At 256
// a uint8 indexes its offset arrays, so their stores need no bounds check.
const blockLen = 256

// bisect partitions particles [lo, hi) so that those with coordinate d <
// mid come first; it returns m, the index of the first particle with
// coordinate >= mid.
//
// It makes the swaps of the two-pointer Hoare loop, which pairs the t-th
// particle >= mid from the left of [lo, m) with the t-th particle < mid
// from the right of [m, hi), but finds them without a data-dependent
// branch (BlockQuicksort's block partition, Edelkamp and Weiss, ESA 2016):
// a first pass counts the particles < mid, which fixes m, and each side
// is then classified a block at a time, writing every offset into an
// array and advancing the array's length by the predicate, 0 or 1. The
// pairs are swapped in Hoare's order as both sides have them, so the
// particle order, Perm and ParticleMoves are the two-pointer loop's.
//
//hot:path
func (b *builder) bisect(lo, hi, d int, mid float64) int {
	coord := b.coord(d)
	m := lo + countBelow(coord[lo:hi], mid)
	b.stats.ParticleScans += hi - lo

	// The left side [i0, i) and the right side [j, j0) are classified:
	// offL[sl:nl] are the offsets from i0 of the left particles >= mid not
	// yet swapped, offR[sr:nr] those from j0-1 leftward of the right
	// particles < mid. Every swap pairs one of each, so both sides run out
	// of pairs together: the two sides hold as many misplaced particles.
	var offL, offR [blockLen]uint8
	i, j := lo, hi
	var i0, j0, nl, sl, nr, sr int
	for {
		if sl == nl {
			if i == m {
				break
			}
			blk := coord[i:min(i+blockLen, m)]
			i0, nl, sl = i, offsetsAbove(blk, mid, &offL), 0
			i += len(blk)
		}
		if sr == nr {
			if j == m {
				break
			}
			blk := coord[max(j-blockLen, m):j]
			j0, nr, sr = j, offsetsBelowRev(blk, mid, &offR), 0
			j -= len(blk)
		}
		n := min(nl-sl, nr-sr)
		b.swapPairs(i0, j0-1, offL[sl:sl+n], offR[sr:sr+n])
		sl += n
		sr += n
		b.stats.ParticleMoves += n
	}
	return m
}

// countBelow returns the number of cs below mid, four at a step into four
// running counts, which keeps the loop's adds independent.
//
//hot:path
func countBelow(cs []float64, mid float64) int {
	var n0, n1, n2, n3 int
	k := 0
	for ; k+4 <= len(cs); k += 4 {
		q := cs[k : k+4 : k+4]
		n0 += below(q[0], mid)
		n1 += below(q[1], mid)
		n2 += below(q[2], mid)
		n3 += below(q[3], mid)
	}
	for _, c := range cs[k:] {
		n0 += below(c, mid)
	}
	return n0 + n1 + n2 + n3
}

// offsetsAbove writes the offsets of blk's coordinates >= mid, in order,
// to the front of off and returns their count.
//
//hot:path
func offsetsAbove(blk []float64, mid float64, off *[blockLen]uint8) int {
	o := off[:]
	n := 0
	for k, c := range blk {
		o[uint8(n)] = uint8(k)
		n += 1 ^ below(c, mid)
	}
	return n
}

// offsetsBelowRev writes the offsets from blk's end of its coordinates <
// mid, from the right, to the front of off and returns their count.
//
//hot:path
func offsetsBelowRev(blk []float64, mid float64, off *[blockLen]uint8) int {
	o := off[:]
	n := 0
	for k := range blk {
		o[uint8(n)] = uint8(k)
		n += below(blk[len(blk)-1-k], mid)
	}
	return n
}

// swapPairs swaps particle left+offL[k] with particle right-offR[k],
// together with their permutation entries, for every k in order.
//
//hot:path
func (b *builder) swapPairs(left, right int, offL, offR []uint8) {
	x, y, z, q, perm := b.p.X, b.p.Y, b.p.Z, b.p.Q, b.perm
	offR = offR[:len(offL)]
	for k, o := range offL {
		i, j := left+int(o), right-int(offR[k])
		x[i], x[j] = x[j], x[i]
		y[i], y[j] = y[j], y[i]
		z[i], z[j] = z[j], z[i]
		q[i], q[j] = q[j], q[i]
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// below is 1 when c < mid and 0 otherwise, NaN included. The compiler
// turns it into a flag move (SETHI), not a branch, in every loop above.
func below(c, mid float64) int {
	if c < mid {
		return 1
	}
	return 0
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
