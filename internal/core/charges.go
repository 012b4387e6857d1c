package core

import (
	"math"

	"barytree/internal/chebyshev"
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
// need[i] selects. Each worker owns one set of barycentric rows, so the
// allocations of a pass do not depend on the clusters' sizes.
func (cd *ClusterData) chargeNodes(t *tree.Tree, q []float64, qhat [][]float64, need []bool, workers int) {
	m := cd.Degree + 1
	pool.Blocks(len(t.Nodes), workers, func(_, lo, hi int) {
		rows := make([]float64, 3*m)
		for i := lo; i < hi; i++ {
			if need[i] {
				cd.chargeNode(t.Particles, q, &t.Nodes[i], i, rows, qhat[i])
			}
		}
	})
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
// order) into qhat, one particle at a time: the particle's three rows of
// barycentric factors and its intermediate charge q-tilde (equation (14)),
// then its term t_x[k1]*t_y[k2]*t_z[k3]*q-tilde added into every point's
// running sum (equation (15)). Each point sums from +0 in particle order
// with the equation's association, so the values are bit-identical to the
// paper's two kernels run one after the other whenever the product of the
// three denominators lies within 2^-900 and 2^900 in magnitude, as it does
// for every box whose sides lie between about 1e-90 and 1e90. rows is the
// caller's scratch of 3*(degree+1) values.
//
//hot:path
func (cd *ClusterData) chargeNode(src *particle.Set, q []float64, nd *tree.Node, ni int, rows, qhat []float64) {
	g := cd.Grids[ni]
	m := cd.Degree + 1
	tx, ty, tz := rows[:m], rows[m:2*m], rows[2*m:3*m]
	clear(qhat)
	for p := nd.Lo; p < nd.Hi; p++ {
		dx := barycentricFactorsInto(g.Dims[0], src.X[p], tx)
		dy := barycentricFactorsInto(g.Dims[1], src.Y[p], ty)
		dz := barycentricFactorsInto(g.Dims[2], src.Z[p], tz)
		den := dx * dy * dz
		qt := q[p] / den
		if a := math.Abs(den); !(a >= 0x1p-900 && a <= 0x1p900) {
			// Box sides beyond about 1e90 or below about 1e-90: the
			// product of the three denominators, the charge over it, or
			// a term's three factors (each up to the Lebesgue constant
			// times its row's denominator) can leave the float64 range.
			// Divide each row by its own denominator instead, the same
			// terms in exact arithmetic.
			divideRow(tx, dx)
			divideRow(ty, dy)
			divideRow(tz, dz)
			qt = q[p]
		}
		b := 0
		for _, x := range tx {
			for _, y := range ty {
				xy := x * y
				out := qhat[b : b+len(tz)]
				for k, z := range tz {
					out[k] += xy * z * qt
				}
				b += len(tz)
			}
		}
	}
}

// divideRow divides every entry of t by d.
//
//hot:path
func divideRow(t []float64, d float64) {
	for k := range t {
		t[k] /= d
	}
}

// barycentricFactorsInto fills t[k] = w_k/(x - s_k) for a 1D grid and
// returns the sum d. If x coincides with a node within the singularity
// tolerance, t becomes the Kronecker delta at that node and d = 1, which
// enforces L_k(x) = delta exactly (Section 2.3 of the paper). len(t) is the
// number of grid points m.
//
//hot:path
func barycentricFactorsInto(g chebyshev.Grid1D, x float64, t []float64) (d float64) {
	for k := range t {
		diff := x - g.Points[k]
		if math.Abs(diff) <= chebyshev.SingularityTol {
			for i := range t {
				t[i] = 0
			}
			t[k] = 1
			return 1
		}
		t[k] = g.Weights[k] / diff
		d += t[k]
	}
	return d
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
