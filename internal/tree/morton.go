// Morton-ordered construction: an alternative, canonical build of the
// cluster tree for dynamic simulations (ROADMAP item 1).
//
// The midpoint-split build (tree.go) derives its partition planes from the
// shrunken boxes of whatever ordering the particles arrive in, so after
// particles drift there is no cheap way to reconcile an existing tree with
// a freshly built one. The Morton build removes that obstacle by making the
// whole structure a pure function of the multiset of particles:
//
//  1. the quantization domain is a snapped cube (power-of-two side with 2x
//     headroom, corner snapped to the half-side grid) so small motion never
//     changes it;
//  2. every particle gets a 63-bit Morton (Z-order) code, and the tree order
//     is the particles sorted by (code, original index) — a strict total
//     order, so the sorted sequence is unique;
//  3. the topology is derived from the sorted codes alone: a node splits
//     into its non-empty octants (3-bit digit groups), skipping digit levels
//     shared by all of its codes, until a node holds at most LeafSize
//     particles or its codes are exhausted;
//  4. every box is the minimal bounding box of the node's own particles,
//     computed by one shared bottom-up refit routine.
//
// Because every step is canonical, an incremental repair that merely
// restores the sorted order after drift (per-leaf re-sorts plus a merge of
// the particles that left their leaf's cell) reproduces the fresh build
// bit for bit — boxes, permutation, statistics and all. That identity is
// what Plan.Update's repair path is built on; see docs/performance.md.
package tree

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"barytree/internal/geom"
	"barytree/internal/particle"
	"barytree/internal/pool"
)

// MortonBits is the per-dimension quantization depth: 21 bits per axis
// interleave into a 63-bit code with the top bit clear.
const MortonBits = 21

// mortonTopShift is the bit shift of the most significant 3-bit digit.
const mortonTopShift = 3 * (MortonBits - 1)

// SnapMortonDomain returns the Morton quantization cube for particles with
// bounding box b: the side is the smallest power of two at least twice the
// longest side of b (1 for a degenerate point), and the lower corner is b's
// corner snapped down to multiples of half the side. The 2x headroom plus
// grid snapping make the domain stable: particles can drift by a quarter of
// the cube side in any direction before a fresh build would pick a
// different domain, so an update can detect "same domain" with an exact
// comparison.
func SnapMortonDomain(b geom.Box) geom.Box {
	s := b.Size()
	long := s.X
	if s.Y > long {
		long = s.Y
	}
	if s.Z > long {
		long = s.Z
	}
	side := 1.0
	if long > 0 {
		frac, exp := math.Frexp(2 * long) // 2*long = frac * 2^exp, frac in [0.5, 1)
		if frac == 0.5 {
			exp--
		}
		side = math.Ldexp(1, exp)
	}
	if math.IsInf(side, 0) {
		// Astronomically wide inputs: fall back to an unsnapped cube. The
		// result is still a pure function of the bounds.
		side = math.MaxFloat64
		return geom.Box{Lo: b.Lo, Hi: geom.Vec3{X: b.Lo.X + side, Y: b.Lo.Y + side, Z: b.Lo.Z + side}}
	}
	g := side / 2
	lo := geom.Vec3{
		X: math.Floor(b.Lo.X/g) * g,
		Y: math.Floor(b.Lo.Y/g) * g,
		Z: math.Floor(b.Lo.Z/g) * g,
	}
	return geom.Box{Lo: lo, Hi: geom.Vec3{X: lo.X + side, Y: lo.Y + side, Z: lo.Z + side}}
}

// spread3 spaces the low 21 bits of v three apart (bit i moves to bit 3i).
func spread3(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// MortonEncode quantizes (x, y, z) against the domain cube and interleaves
// the three 21-bit cell coordinates into a 63-bit Morton code. Coordinates
// outside the domain clamp to the boundary cells.
func MortonEncode(domain geom.Box, x, y, z float64) uint64 {
	side := domain.Hi.X - domain.Lo.X
	scale := float64(uint64(1)<<MortonBits) / side
	cell := func(v, lo float64) uint64 {
		f := (v - lo) * scale
		if !(f > 0) { // also catches NaN from side == Inf underflow
			return 0
		}
		c := uint64(f)
		if c > 1<<MortonBits-1 {
			c = 1<<MortonBits - 1
		}
		return c
	}
	return spread3(cell(x, domain.Lo.X)) |
		spread3(cell(y, domain.Lo.Y))<<1 |
		spread3(cell(z, domain.Lo.Z))<<2
}

// MortonIndex is the per-plan state of a Morton-mode tree: the quantization
// domain, the code of every particle in tree order (as of the last build,
// update or repair), and each node's Morton cell for O(1) membership checks.
type MortonIndex struct {
	Domain geom.Box
	// Codes[i] is the Morton code of tree-order particle i.
	Codes []uint64
	// CellPrefix[n] and CellShift[n] describe node n's Morton cell: a code c
	// belongs to the cell iff c>>CellShift[n] == CellPrefix[n]>>CellShift[n].
	// For a node whose particles share one code the cell is that single code
	// (shift 0).
	CellPrefix []uint64
	CellShift  []uint8
}

// EncodeInto fills dst (grown as needed) with the Morton codes of every
// particle of p, in p's order, against the index's domain, and returns it.
// Encoding is embarrassingly parallel; workers only bounds host goroutines.
func (mi *MortonIndex) EncodeInto(dst []uint64, p *particle.Set, workers int) []uint64 {
	n := p.Len()
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	pool.Blocks(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = MortonEncode(mi.Domain, p.X[i], p.Y[i], p.Z[i])
		}
	})
	return dst
}

// cellOf returns the smallest Morton cell (digit-aligned code prefix)
// containing both a and b, as a masked prefix and the shift below it.
func cellOf(a, b uint64) (prefix uint64, shift uint8) {
	if a == b {
		return a, 0
	}
	s := (uint8(bits.Len64(a^b)) + 2) / 3 * 3 // round the differing bit up to a digit boundary
	return a >> s << s, s
}

// BuildMortonWorkers constructs the canonical Morton-ordered cluster tree
// over src: particles sorted by (Morton code, input index), topology derived
// from the sorted codes by octant splitting with shared-digit skipping, and
// minimal boxes from RefitBoxesWorkers. The input set is not modified. The
// output is bit-identical for every worker count, and — unlike the midpoint
// build — it is a pure function of the particle multiset with input order
// only breaking code ties, which is what makes incremental repair
// (MortonRepair) able to reproduce a fresh build exactly.
func BuildMortonWorkers(src *particle.Set, leafSize, workers int) (*Tree, *MortonIndex) {
	if leafSize < 1 {
		panic("tree: leaf size must be >= 1")
	}
	if src == nil {
		panic("tree: nil particle set")
	}
	n := src.Len()
	t := &Tree{
		Particles: src.Clone(),
		Perm:      particle.Identity(n),
		LeafSize:  leafSize,
	}
	mi := &MortonIndex{}
	if n == 0 {
		return t, mi
	}
	mi.Domain = SnapMortonDomain(src.Bounds())

	inCodes := mi.EncodeInto(nil, src, workers)
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		if inCodes[a] != inCodes[b] {
			if inCodes[a] < inCodes[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})

	mi.Codes = make([]uint64, n)
	pool.Blocks(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			o := ord[i]
			t.Particles.X[i] = src.X[o]
			t.Particles.Y[i] = src.Y[o]
			t.Particles.Z[i] = src.Z[o]
			t.Particles.Q[i] = src.Q[o]
			t.Perm[i] = int(o)
			mi.Codes[i] = inCodes[o]
		}
	})

	deriveMortonTopology(t, mi)
	t.RefitBoxesWorkers(workers)
	return t, mi
}

// deriveMortonTopology (re)derives t's nodes, cells and build statistics
// from the sorted codes in mi.Codes — the canonical topology shared by
// fresh builds and repairs. Boxes are not set; callers follow with
// RefitBoxesWorkers.
func deriveMortonTopology(t *Tree, mi *MortonIndex) {
	mb := mortonTopology(mi.Codes, t.LeafSize)
	t.Nodes, t.Stats = mb.nodes, mb.stats
	mi.CellPrefix, mi.CellShift = mb.prefix, mb.shift
}

// mortonTopology derives the canonical topology at leafSize from
// non-empty sorted codes.
func mortonTopology(codes []uint64, leafSize int) *mortonBuilder {
	n := len(codes)
	mb := &mortonBuilder{
		codes:    codes,
		leafSize: leafSize,
		nodes:    make([]Node, 0, nodeCapHint(n, leafSize)),
	}
	// The sort's gather pass moves every particle once; charge it like the
	// midpoint build charges its partition swaps.
	mb.stats.ParticleMoves = n
	mb.build(-1, 0, n, 0, mortonTopShift)
	return mb
}

// MortonCut cuts t's Morton order at leafSize: the canonical topology of
// mi's codes, which must be sorted as t's build or last repair left them,
// with leaves of at most leafSize particles, as a tree that shares t's
// particles and permutation, with boxes from RefitBoxesWorkers. Its
// nodes, boxes, permutation and statistics equal BuildMortonWorkers' at
// leafSize on the same particles — the statistics still charge the sort's
// gather pass, which the cut reuses instead of repeating — and a cut at
// t.LeafSize reproduces t's nodes. A Morton plan takes its target batches
// from the cut at BatchSize of its source tree, so the particles are
// sorted once. A repair replaces t's particle storage, so a cut must be
// taken again after one.
func (t *Tree) MortonCut(mi *MortonIndex, leafSize, workers int) *Tree {
	c := &Tree{Particles: t.Particles, Perm: t.Perm, LeafSize: leafSize}
	if len(mi.Codes) == 0 {
		return c
	}
	mb := mortonTopology(mi.Codes, leafSize)
	c.Nodes, c.Stats = mb.nodes, mb.stats
	c.RefitBoxesWorkers(workers)
	return c
}

// mortonBuilder derives the canonical topology from sorted Morton codes.
type mortonBuilder struct {
	codes    []uint64
	leafSize int
	nodes    []Node
	prefix   []uint64
	shift    []uint8
	stats    BuildStats
}

func digit3(c uint64, shift int) uint64 { return c >> uint(shift) & 7 }

// build creates the node over sorted-code range [lo, hi) and recursively
// splits it by the first 3-bit digit level (at or below shift) where its
// codes differ. Digit levels shared by every code in the range are skipped,
// so a chain of single-occupancy octants collapses into one edge and the
// depth stays bounded by the code length regardless of clustering.
func (b *mortonBuilder) build(parent int32, lo, hi, level, shift int) int32 {
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Lo: lo, Hi: hi, Parent: parent, Level: level})
	p, s := cellOf(b.codes[lo], b.codes[hi-1])
	b.prefix = append(b.prefix, p)
	b.shift = append(b.shift, s)
	b.stats.Nodes++
	if level > b.stats.MaxDepth {
		b.stats.MaxDepth = level
	}
	b.stats.ParticleScans += hi - lo // box refit scan
	if hi-lo <= b.leafSize {
		b.stats.Leaves++
		return idx
	}
	for shift >= 0 && digit3(b.codes[lo], shift) == digit3(b.codes[hi-1], shift) {
		shift -= 3
	}
	if shift < 0 {
		// Every code in the range is identical (coincident particles up to
		// quantization): no further split is possible.
		b.stats.Leaves++
		return idx
	}
	b.stats.ParticleScans += hi - lo // partition scan
	children := make([]int32, 0, 8)
	for pos := lo; pos < hi; {
		// First code outside the current octant: the octant's codes are a
		// contiguous run of the sorted range, found by binary search.
		limit := (b.codes[pos]>>uint(shift) + 1) << uint(shift)
		end := pos + sort.Search(hi-pos, func(k int) bool { return b.codes[pos+k] >= limit })
		children = append(children, b.build(idx, pos, end, level+1, shift-3))
		pos = end
	}
	b.nodes[idx].Children = children
	return idx
}

// RefitBoxesWorkers recomputes every node's minimal bounding box — and the
// Center and Radius the MAC reads — from the current particle coordinates:
// leaf boxes by scanning their particle ranges (parallel over nodes),
// internal boxes bottom-up by combining child boxes left to right with the
// same first-wins comparisons as the build scans. Nodes are stored in
// preorder (children after parents), so one reverse sweep suffices. For
// unchanged coordinates the refit is idempotent bit for bit; after
// coordinates change it yields exactly the boxes a fresh build of the same
// topology would produce.
func (t *Tree) RefitBoxesWorkers(workers int) {
	if len(t.Nodes) == 0 {
		return
	}
	pool.For(len(t.Nodes), workers, func(i int) {
		nd := &t.Nodes[i]
		if !nd.IsLeaf() {
			return
		}
		nd.Box = boundsRange(t.Particles, nd.Lo, nd.Hi)
		nd.Center = nd.Box.Center()
		nd.Radius = nd.Box.Radius()
	})
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		nd := &t.Nodes[i]
		if nd.IsLeaf() {
			continue
		}
		box := t.Nodes[nd.Children[0]].Box
		for _, c := range nd.Children[1:] {
			combineBox(&box, t.Nodes[c].Box)
		}
		nd.Box = box
		nd.Center = box.Center()
		nd.Radius = box.Radius()
	}
}

// Drifters appends to out the tree positions (ascending) whose new code has
// left its leaf's Morton cell — the particles an incremental repair must
// re-bucket. codes holds the new codes in tree order.
func (mi *MortonIndex) Drifters(t *Tree, codes []uint64, out []int32) []int32 {
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if !nd.IsLeaf() {
			continue
		}
		p, s := mi.CellPrefix[i]>>mi.CellShift[i], mi.CellShift[i]
		for j := nd.Lo; j < nd.Hi; j++ {
			if codes[j]>>s != p {
				out = append(out, int32(j))
			}
		}
	}
	return out
}

// OutOfTolerance counts the particles lying outside their leaf's bounding
// box dilated by tol times the leaf's drift scale on every side; positions
// exactly on the dilated boundary are inside. This is the refit fast
// path's drift test: while every particle stays within tolerance of its
// leaf, refitting boxes in place keeps the cached interaction lists
// geometrically honest (up to the θ recheck).
//
// The drift scale is the larger of the leaf's box radius and half the
// side of its Morton cell. The radius ties the envelope to the cluster
// the cached structures describe; the cell floor keeps sparse leaves —
// down to a single particle, whose box radius is zero — from pinning the
// envelope at nothing, since movement on the scale of the leaf's own
// (empty) cell cannot invalidate more than the MAC recheck guards.
func (mi *MortonIndex) OutOfTolerance(t *Tree, tol float64) int {
	side := mi.Domain.Hi.X - mi.Domain.Lo.X
	out := 0
	p := t.Particles
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if !nd.IsLeaf() {
			continue
		}
		scale := nd.Radius
		if half := math.Ldexp(side, int(mi.CellShift[i])/3-MortonBits-1); half > scale {
			scale = half
		}
		e := tol * scale
		lo, hi := nd.Box.Lo, nd.Box.Hi
		for j := nd.Lo; j < nd.Hi; j++ {
			if p.X[j] < lo.X-e || p.X[j] > hi.X+e ||
				p.Y[j] < lo.Y-e || p.Y[j] > hi.Y+e ||
				p.Z[j] < lo.Z-e || p.Z[j] > hi.Z+e {
				out++
			}
		}
	}
	return out
}

// MortonRepair re-establishes the canonical Morton order after particle
// drift and re-derives the tree from it. codes holds the new codes in
// current tree order and drifters the positions that left their leaf's
// cell (ascending, from Drifters). The non-drifters of each leaf are
// re-sorted within their run (sub-cell code bits may have changed), the
// drifters are sorted globally, and the two sequences merge by
// (code, original index) — the same strict total order the fresh build
// sorts by — so the repaired tree, permutation, codes, cells and statistics
// are bit-identical to BuildMortonWorkers on the same particles in original
// input order. Boxes are refit from scratch. The tree's particle arrays and
// permutation are replaced; mi.Codes is updated in place.
func (t *Tree) MortonRepair(mi *MortonIndex, codes []uint64, drifters []int32, workers int) {
	n := t.Particles.Len()
	if n == 0 {
		return
	}
	less := func(a, b int32) int {
		if codes[a] != codes[b] {
			if codes[a] < codes[b] {
				return -1
			}
			return 1
		}
		return t.Perm[a] - t.Perm[b]
	}

	// Stayers, sorted within each leaf run. Leaves appear in preorder with
	// ascending, disjoint cells, and every stayer's code is still inside
	// its leaf's cell, so the concatenation is globally sorted.
	base := make([]int32, 0, n-len(drifters))
	di := 0
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if !nd.IsLeaf() {
			continue
		}
		start := len(base)
		for j := nd.Lo; j < nd.Hi; j++ {
			if di < len(drifters) && drifters[di] == int32(j) {
				di++
				continue
			}
			base = append(base, int32(j))
		}
		slices.SortFunc(base[start:], less)
	}
	drift := slices.Clone(drifters)
	slices.SortFunc(drift, less)

	// Merge into the canonical order: ord[k] = current tree position of the
	// particle that belongs at sorted position k.
	ord := make([]int32, 0, n)
	bi, dj := 0, 0
	for bi < len(base) && dj < len(drift) {
		if less(base[bi], drift[dj]) < 0 {
			ord = append(ord, base[bi])
			bi++
		} else {
			ord = append(ord, drift[dj])
			dj++
		}
	}
	ord = append(ord, base[bi:]...)
	ord = append(ord, drift[dj:]...)

	// Gather every per-particle array through ord.
	old, oldPerm := t.Particles, t.Perm
	t.Particles = &particle.Set{
		X: make([]float64, n), Y: make([]float64, n),
		Z: make([]float64, n), Q: make([]float64, n),
	}
	t.Perm = make(particle.Permutation, n)
	mi.Codes = make([]uint64, n)
	pool.Blocks(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			o := ord[i]
			t.Particles.X[i] = old.X[o]
			t.Particles.Y[i] = old.Y[o]
			t.Particles.Z[i] = old.Z[o]
			t.Particles.Q[i] = old.Q[o]
			t.Perm[i] = oldPerm[o]
			mi.Codes[i] = codes[o]
		}
	})

	deriveMortonTopology(t, mi)
	t.RefitBoxesWorkers(workers)
}

// BatchSetFromTree derives the target batch set from a cluster tree built
// (or cut, see MortonCut) with leaf size equal to the batch size: the
// batches are exactly the tree's leaves, sharing the tree's particle
// storage and permutation.
func BatchSetFromTree(t *Tree) *BatchSet {
	bs := &BatchSet{
		Targets:   t.Particles,
		Perm:      t.Perm,
		BatchSize: t.LeafSize,
		Stats:     t.Stats,
	}
	bs.Batches = make([]Batch, 0, t.Stats.Leaves)
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.IsLeaf() {
			bs.Batches = append(bs.Batches, Batch{
				Center: nd.Center,
				Radius: nd.Radius,
				Lo:     nd.Lo,
				Hi:     nd.Hi,
			})
		}
	}
	return bs
}

// RefreshFromTree re-reads the batch geometry (centers, radii) from the
// tree's leaves after a box refit. The topology — batch count, particle
// ranges, storage and permutation — is unchanged by construction, so only
// the MAC-relevant fields move.
func (bs *BatchSet) RefreshFromTree(t *Tree) {
	k := 0
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.IsLeaf() {
			bs.Batches[k].Center = nd.Center
			bs.Batches[k].Radius = nd.Radius
			k++
		}
	}
}
