package core

import (
	"fmt"

	"barytree/internal/chebyshev"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/pool"
	"barytree/internal/tree"
)

// ClusterData holds, for every node of a source tree, the tensor-product
// Chebyshev grid over the node's (minimal) bounding box and the flattened
// interpolation-point coordinates. It depends on positions only: a Plan's
// solves keep their modified charges in a ChargeState.
type ClusterData struct {
	Degree int
	Grids  []chebyshev.Grid3D
	// PX/PY/PZ[i] are the flattened coordinates of node i's (n+1)^3
	// interpolation points in chebyshev.Grid3D flat-index order. Every
	// per-node slice is a view into one flat arena (ptArena), so the whole
	// layout costs a handful of allocations rather than ~4 per node.
	PX, PY, PZ [][]float64
	// Qhat[i] are node i's modified charges, filled only by
	// LaunchChargeKernels, the charge pass of a distributed rank's own
	// cluster data. Qhat is nil before it, and every entry stays nil
	// under a model-only launch.
	Qhat [][]float64

	cache     *chebyshev.DegreeCache // degree-dependent cos/weights tables
	gridArena []float64              // 1D grid points, 3*(degree+1) per node
	ptArena   []float64              // flattened coords, 3*(n+1)^3 per node
}

// NewClusterData lays out degree-n interpolation grids for every node of t
// using all available cores; it is NewClusterDataWorkers with the default
// worker count.
func NewClusterData(t *tree.Tree, degree int) *ClusterData {
	return NewClusterDataWorkers(t, degree, 0)
}

// NewClusterDataWorkers is NewClusterData with an explicit worker bound
// (workers <= 0 selects GOMAXPROCS). Grids for independent nodes are filled
// in parallel; the coordinate values are bit-identical to the serial
// chebyshev.NewGrid3D + FlattenedPoints layout for every worker count —
// each grid is an affine map of one cached cos(pi*k/n) table, the same
// expression NewGrid1D evaluates per node.
func NewClusterDataWorkers(t *tree.Tree, degree, workers int) *ClusterData {
	n := len(t.Nodes)
	cd := &ClusterData{
		Degree: degree,
		Grids:  make([]chebyshev.Grid3D, n),
		PX:     make([][]float64, n),
		PY:     make([][]float64, n),
		PZ:     make([][]float64, n),
	}
	if n == 0 {
		return cd
	}
	// Degree validity is checked by NewDegreeCache exactly as the per-node
	// NewGrid1D used to (only reachable with nodes present, as before).
	cd.cache = chebyshev.NewDegreeCache(degree)
	m := degree + 1
	cd.gridArena = make([]float64, n*3*m)
	cd.ptArena = make([]float64, n*3*m*m*m)
	cd.fillGrids(t, workers)
	return cd
}

// RefitGridsWorkers re-lays the interpolation grid of every node over the
// tree's current (refit) boxes, reusing the grid and point arenas. This is
// Plan.Update's refit fast path for the cluster data: the node count is
// unchanged by construction, so no allocation or re-slicing is needed, and
// the cluster data is indistinguishable from a fresh NewClusterDataWorkers
// over the refit tree — same arena layout, same bits.
func (cd *ClusterData) RefitGridsWorkers(t *tree.Tree, workers int) {
	if len(t.Nodes) != len(cd.Grids) {
		panic("core: RefitGridsWorkers on a tree with a different node count")
	}
	cd.fillGrids(t, workers)
}

// fillGrids lays node i's grid over t.Nodes[i].Box into its slots of the
// grid and point arenas, for every node, with up to workers goroutines.
func (cd *ClusterData) fillGrids(t *tree.Tree, workers int) {
	m := cd.Degree + 1
	np := m * m * m
	pool.For(len(t.Nodes), workers, func(i int) {
		g := cd.cache.Grid3DInto(t.Nodes[i].Box, cd.gridArena[i*3*m:(i+1)*3*m])
		cd.Grids[i] = g
		base := i * 3 * np
		px := cd.ptArena[base : base+np : base+np]
		py := cd.ptArena[base+np : base+2*np : base+2*np]
		pz := cd.ptArena[base+2*np : base+3*np : base+3*np]
		g.FlattenedPointsInto(px, py, pz)
		cd.PX[i], cd.PY[i], cd.PZ[i] = px, py, pz
	})
}

// qhatSlots allocates one modified-charge slot of (n+1)^3 values for each
// of nodes nodes, all views into one flat arena, so a charge store costs
// two allocations however many nodes it covers.
func (cd *ClusterData) qhatSlots(nodes int) [][]float64 {
	m := cd.Degree + 1
	np := m * m * m
	arena := make([]float64, nodes*np)
	qhat := make([][]float64, nodes)
	for i := range qhat {
		qhat[i] = arena[i*np : (i+1)*np : (i+1)*np]
	}
	return qhat
}

// chargeWork returns the modeled flop-equivalents of the two preprocessing
// kernels for a cluster of nc particles at degree n: the first kernel is
// O((n+1)*nc) (three denominator sums per particle), the second is
// O((n+1)^3*nc) (one product term per particle per interpolation point).
func chargeWork(n, nc int) (pass1, pass2 float64) {
	m := float64(n + 1)
	pass1 = float64(nc) * (6*m + 12)
	pass2 = float64(nc) * 4 * m * m * m
	return pass1, pass2
}

// chargeNodes is the host charge pass, the one loop behind every modified
// charge: with up to workers goroutines it computes the modified charges
// of charges q (tree order) into qhat[i] for every node i of t that
// need[i] selects. Each child of a selected node charged from its
// children (see fromChildren) must be selected too or already charged in
// qhat; closeNeed makes need so. The nodes charged from their particles
// go first, split over the workers by index, a chunk of particles at a
// time (chargeNode). The rest are then charged from their children one
// tree level at a time, deepest first, each level split over the
// workers (levelOrder). One worker sweeps them in reverse
// preorder instead, which needs no level order, so a one-worker pass
// allocates only its arena and closure. Either way each child is charged
// before its parent, and every parent sums its children in Children
// order, so no bit depends on the worker count. The arena holds every
// worker's chunk of barycentric rows and its transfer, so no allocation
// depends on the clusters' sizes.
func (cd *ClusterData) chargeNodes(t *tree.Tree, q []float64, qhat [][]float64, need []bool, workers int) {
	w := pool.Workers(len(t.Nodes), workers)
	arena := make([]float64, w*cd.scratchLen())
	pool.Blocks(len(t.Nodes), w, func(wi, lo, hi int) {
		chunk, _ := cd.scratch(arena, wi)
		for i := lo; i < hi; i++ {
			if need[i] && !cd.fromChildren(&t.Nodes[i]) {
				cd.chargeNode(t.Particles, q, &t.Nodes[i], i, chunk, qhat[i])
			}
		}
	})
	if w == 1 {
		_, tr := cd.scratch(arena, 0)
		for i := len(t.Nodes) - 1; i >= 0; i-- {
			if need[i] && cd.fromChildren(&t.Nodes[i]) {
				cd.chargeFromChildren(t, tr, i, qhat)
			}
		}
		return
	}
	order, start := cd.levelOrder(t, need)
	for l := len(start) - 2; l >= 0; l-- {
		level := order[start[l]:start[l+1]]
		pool.Blocks(len(level), w, func(wi, lo, hi int) {
			_, tr := cd.scratch(arena, wi)
			for _, i := range level[lo:hi] {
				cd.chargeFromChildren(t, tr, int(i), qhat)
			}
		})
	}
}

// scratchLen is the length of one worker's slot in a charge pass's
// arena: its chunk of barycentric rows, its transfer and a cache line of
// padding, which keeps the workers from writing to one line.
func (cd *ClusterData) scratchLen() int {
	return kernel.ChargeChunkLen(cd.Degree+1) + chebyshev.TransferLen(cd.Degree) + 8
}

// scratch carves worker wi's chunk of barycentric rows and its transfer
// from its slot of arena.
func (cd *ClusterData) scratch(arena []float64, wi int) ([]float64, chebyshev.Transfer) {
	slot := arena[wi*cd.scratchLen():]
	c := kernel.ChargeChunkLen(cd.Degree + 1)
	return slot[:c:c], chebyshev.NewTransfer(cd.Degree, slot[c:c+chebyshev.TransferLen(cd.Degree)])
}

// chargeFromChildren charges node i as the sum of its children's modified
// charges pushed through tr, in Children order.
func (cd *ClusterData) chargeFromChildren(t *tree.Tree, tr chebyshev.Transfer, i int, qhat [][]float64) {
	clear(qhat[i])
	for _, c := range t.Nodes[i].Children {
		tr.Set(cd.Grids[i], cd.Grids[c])
		tr.Up(qhat[c], qhat[i])
	}
}

// levelOrder returns the nodes need selects that are charged from their
// children by tree level: those at level l are order[start[l]:start[l+1]],
// in index order. A child lies one level below its parent
// (tree.Node.Level, which both tree builders set), so a sweep that runs
// the levels deepest first reads at each level only charges the levels
// before it wrote; a tree without levels, such as a deserialized remote
// tree, is a bug here and panics.
func (cd *ClusterData) levelOrder(t *tree.Tree, need []bool) (order, start []int32) {
	deepest, count := -1, 0
	for i := range t.Nodes {
		if nd := &t.Nodes[i]; need[i] && cd.fromChildren(nd) {
			for _, c := range nd.Children {
				if t.Nodes[c].Level != nd.Level+1 {
					panic(fmt.Sprintf("core: node %d at level %d has child %d at level %d", i, nd.Level, c, t.Nodes[c].Level))
				}
			}
			deepest = max(deepest, nd.Level)
			count++
		}
	}
	levels := deepest + 1
	buf := make([]int32, count+2*levels+1)
	order, start, next := buf[:count], buf[count:count+levels+1], buf[count+levels+1:]
	for i := range t.Nodes {
		if nd := &t.Nodes[i]; need[i] && cd.fromChildren(nd) {
			start[nd.Level+1]++
		}
	}
	for l := range levels {
		start[l+1] += start[l]
	}
	copy(next, start)
	for i := range t.Nodes {
		if nd := &t.Nodes[i]; need[i] && cd.fromChildren(nd) {
			order[next[nd.Level]] = int32(i)
			next[nd.Level]++
		}
	}
	return order, start
}

// fromChildren reports whether the charge pass charges node nd from its
// children's modified charges (chebyshev.Transfer.Up, 3(n+1)^4
// multiply-adds per child) rather than from its particles ((n+1)^3 terms
// each): when nd is internal and the first costs less. The rule reads the
// tree and the degree alone, never which nodes a pass needs, so a node's
// bits are the same under every mask.
func (cd *ClusterData) fromChildren(nd *tree.Node) bool {
	return len(nd.Children) > 0 && 3*(cd.Degree+1)*len(nd.Children) < nd.Count()
}

// closeNeed adds to need the children of every selected node charged from
// its children, and theirs in turn: one preorder sweep, since nodes are
// stored parents first.
func (cd *ClusterData) closeNeed(t *tree.Tree, need []bool) {
	for i := range t.Nodes {
		if nd := &t.Nodes[i]; need[i] && cd.fromChildren(nd) {
			for _, c := range nd.Children {
				need[c] = true
			}
		}
	}
}

// everyNode returns need flags that select all n nodes: the device charges
// every cluster.
func everyNode(n int) []bool {
	need := make([]bool, n)
	for i := range need {
		need[i] = true
	}
	return need
}

// chargeNode computes node ni's modified charges for charges q (tree
// order) into qhat, a chunk of kernel.ChargeChunk particles at a time, in
// the shape of the paper's two kernels: kernel.ChargeRows computes the
// chunk's barycentric rows and intermediate charges q-tilde (equation
// (14)), then kernel.ChargeUpdate adds each particle's term
// t_x[k1]*t_y[k2]*t_z[k3]*q-tilde into every point's running sum
// (equation (15)), both on ZMM rows where the CPU has them. Each point
// sums from +0 in particle order with the equation's association, so the
// values are bit-identical to the paper's two kernels run one after the
// other whenever the product of the three denominators lies within
// 2^-900 and 2^900 in magnitude, as it does for every box whose sides
// lie between about 1e-90 and 1e90; beyond it each row is divided by its
// own denominator (ChargeRows). chunk is the caller's scratch of
// kernel.ChargeChunkLen(degree+1) values.
//
//hot:path
func (cd *ClusterData) chargeNode(src *particle.Set, q []float64, nd *tree.Node, ni int, chunk, qhat []float64) {
	g := cd.Grids[ni]
	m := cd.Degree + 1
	gx, gy, gz, w := g.Dims[0].Points, g.Dims[1].Points, g.Dims[2].Points, g.Dims[0].Weights
	rows, update := kernel.ResolveChargeRows(), kernel.ResolveChargeUpdate()
	clear(qhat)
	for lo := nd.Lo; lo < nd.Hi; lo += kernel.ChargeChunk {
		hi := min(lo+kernel.ChargeChunk, nd.Hi)
		rows(chunk, gx, gy, gz, w, src.X[lo:hi], src.Y[lo:hi], src.Z[lo:hi], q[lo:hi])
		update(qhat, chunk, m, hi-lo)
	}
}

// TotalChargeWork returns the modeled flop-equivalents of a full charge
// pass over tree t without executing it.
func (cd *ClusterData) TotalChargeWork(t *tree.Tree) float64 {
	var flops float64
	for i := range t.Nodes {
		p1, p2 := chargeWork(cd.Degree, t.Nodes[i].Count())
		flops += p1 + p2
	}
	return flops
}

// ChargesBytes returns the total size in bytes of all modified-charge
// arrays (the DtH traffic after the precompute phase).
func (cd *ClusterData) ChargesBytes() int64 {
	var n int64
	for _, g := range cd.Grids {
		n += int64(g.NumPoints()) * 8
	}
	return n
}
