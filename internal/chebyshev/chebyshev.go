// Package chebyshev implements barycentric Lagrange interpolation at
// Chebyshev points of the second kind, the approximation engine of the
// barycentric Lagrange treecode (BLTC).
//
// Given a degree n, the interpolation nodes on [-1,1] are
//
//	s_k = cos(pi*k/n), k = 0..n,
//
// with barycentric weights w_k = (-1)^k * delta_k, where delta_k = 1/2 at
// the endpoints and 1 otherwise (Berrut & Trefethen, SIAM Rev. 46(3), 2004).
// The package provides the 1D machinery (grids, weights, basis evaluation
// with removable-singularity handling) and the 3D tensor-product grids that
// source clusters carry.
package chebyshev

import (
	"fmt"
	"math"

	"barytree/internal/geom"
	"barytree/internal/kernel"
)

// SingularityTol is the tolerance within which a point is considered to
// coincide with an interpolation node. Following the paper (Section 2.3) it
// is the smallest positive IEEE normal double precision number.
const SingularityTol = 0x1p-1022 // 2.2250738585072014e-308

// Grid1D holds degree-n Chebyshev points of the second kind on an interval
// [A, B], together with their barycentric weights.
type Grid1D struct {
	A, B    float64
	Points  []float64 // n+1 nodes, descending from B to A (cos is decreasing)
	Weights []float64 // barycentric weights, shared by every interval
}

// NewGrid1D returns the degree-n Chebyshev grid of the second kind on
// [a, b]. Degree n must be at least 1 so that the grid has distinct
// endpoints; n = 0 would collapse to a single point.
func NewGrid1D(n int, a, b float64) Grid1D {
	if n < 1 {
		panic(fmt.Sprintf("chebyshev: degree must be >= 1, got %d", n))
	}
	if b < a {
		a, b = b, a
	}
	g := Grid1D{
		A:       a,
		B:       b,
		Points:  Points(n, a, b),
		Weights: Weights(n),
	}
	return g
}

// Degree returns the interpolation degree n (the grid has n+1 points).
func (g Grid1D) Degree() int { return len(g.Points) - 1 }

// Points returns the n+1 Chebyshev points of the second kind mapped linearly
// to [a, b]. The points are returned in the natural index order k = 0..n,
// i.e. descending from b to a, matching s_k = cos(pi*k/n).
func Points(n int, a, b float64) []float64 {
	pts := make([]float64, n+1)
	mid := (a + b) / 2
	half := (b - a) / 2
	for k := 0; k <= n; k++ {
		pts[k] = mid + half*math.Cos(math.Pi*float64(k)/float64(n))
	}
	// Pin the endpoints exactly: cos(0)=1 and cos(pi)=-1 are exact, but the
	// affine map can introduce rounding; the treecode relies on cluster
	// boxes being *minimal*, so grid endpoints must equal the box corners.
	pts[0] = b
	pts[n] = a
	return pts
}

// Weights returns the barycentric weights w_k = (-1)^k * delta_k for the
// degree-n Chebyshev points of the second kind (equation (7) of the paper).
// The weights are interval-independent: rescaling [a,b] multiplies all
// weights by a common factor that cancels in the barycentric formula.
func Weights(n int) []float64 {
	w := make([]float64, n+1)
	sign := 1.0
	for k := 0; k <= n; k++ {
		w[k] = sign
		sign = -sign
	}
	w[0] *= 0.5
	w[n] *= 0.5
	return w
}

// BasisAt evaluates all n+1 barycentric Lagrange basis polynomials L_k at x,
// writing them into dst (which must have length n+1) and returning it. If x
// coincides with a node s_j within SingularityTol, the removable singularity
// is resolved exactly: L_k(x) = delta_{kj}.
//
// Accuracy contract: x must lie inside or near [A, B]. The barycentric
// formula is famously stable on the interval (Berrut & Trefethen §6) but
// the denominator sum decays like O(x^-(n+1)) far outside it, eventually
// underflowing. The treecode always evaluates the basis at source
// particles *inside* the cluster box, so this regime cannot occur there.
func (g Grid1D) BasisAt(x float64, dst []float64) []float64 {
	n := g.Degree()
	if len(dst) != n+1 {
		panic(fmt.Sprintf("chebyshev: BasisAt dst length %d, want %d", len(dst), n+1))
	}
	// First pass: detect node coincidence.
	for k := 0; k <= n; k++ {
		if math.Abs(x-g.Points[k]) <= SingularityTol {
			for j := range dst {
				dst[j] = 0
			}
			dst[k] = 1
			return dst
		}
	}
	var sum float64
	for k := 0; k <= n; k++ {
		t := g.Weights[k] / (x - g.Points[k])
		dst[k] = t
		sum += t
	}
	inv := 1 / sum
	for k := 0; k <= n; k++ {
		dst[k] *= inv
	}
	return dst
}

// Interpolate evaluates the barycentric Lagrange interpolant of the nodal
// values f (length n+1, f[k] = f(s_k)) at the point x.
func (g Grid1D) Interpolate(f []float64, x float64) float64 {
	n := g.Degree()
	if len(f) != n+1 {
		panic(fmt.Sprintf("chebyshev: Interpolate values length %d, want %d", len(f), n+1))
	}
	var num, den float64
	for k := 0; k <= n; k++ {
		d := x - g.Points[k]
		if math.Abs(d) <= SingularityTol {
			return f[k]
		}
		t := g.Weights[k] / d
		num += t * f[k]
		den += t
	}
	return num / den
}

// DegreeCache holds the degree-dependent, interval-independent pieces of a
// Chebyshev grid: the unit reference points cos(pi*k/n) on [-1,1] and the
// barycentric weights. A grid on any interval is an affine image of the
// unit points, so one cache serves every cluster box of a tree and the
// per-node math.Cos calls disappear. The cached slices are shared
// (read-only) by every grid built from the cache.
type DegreeCache struct {
	N       int
	Unit    []float64 // cos(pi*k/n), k = 0..n, descending from 1 to -1
	Weights []float64 // barycentric weights, shared by every interval
}

// NewDegreeCache builds the cache for degree n. Like NewGrid1D it panics
// for n < 1.
func NewDegreeCache(n int) *DegreeCache {
	if n < 1 {
		panic(fmt.Sprintf("chebyshev: degree must be >= 1, got %d", n))
	}
	u := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		u[k] = math.Cos(math.Pi * float64(k) / float64(n))
	}
	return &DegreeCache{N: n, Unit: u, Weights: Weights(n)}
}

// Grid1DInto builds the degree-n grid on [a, b] with points stored in pts
// (which must have length n+1) and the cache's shared weights. The points
// are the same affine map pts[k] = mid + half*unit[k] evaluated by Points,
// endpoints pinned, so the result is bit-identical to NewGrid1D.
func (c *DegreeCache) Grid1DInto(a, b float64, pts []float64) Grid1D {
	if b < a {
		a, b = b, a
	}
	mid := (a + b) / 2
	half := (b - a) / 2
	for k, u := range c.Unit {
		pts[k] = mid + half*u
	}
	pts[0] = b
	pts[c.N] = a
	return Grid1D{A: a, B: b, Points: pts, Weights: c.Weights}
}

// Grid3DInto builds the degree-n tensor grid over box b with the 1D point
// slices carved out of pts, which must have length 3*(n+1). The result is
// bit-identical to NewGrid3D(n, b) apart from slice identity.
func (c *DegreeCache) Grid3DInto(b geom.Box, pts []float64) Grid3D {
	m := c.N + 1
	if len(pts) != 3*m {
		panic(fmt.Sprintf("chebyshev: Grid3DInto pts length %d, want %d", len(pts), 3*m))
	}
	return Grid3D{
		N: c.N,
		Dims: [3]Grid1D{
			c.Grid1DInto(b.Lo.X, b.Hi.X, pts[0:m:m]),
			c.Grid1DInto(b.Lo.Y, b.Hi.Y, pts[m:2*m:2*m]),
			c.Grid1DInto(b.Lo.Z, b.Hi.Z, pts[2*m:3*m:3*m]),
		},
	}
}

// Grid3D is the tensor product of three 1D Chebyshev grids over a box; it is
// the set of (n+1)^3 interpolation points s_k = (s_k1, s_k2, s_k3) that a
// source cluster carries (equation (8) of the paper).
type Grid3D struct {
	N    int // interpolation degree along each dimension
	Dims [3]Grid1D
}

// NewGrid3D returns the degree-n tensor-product Chebyshev grid over box b.
func NewGrid3D(n int, b geom.Box) Grid3D {
	return Grid3D{
		N: n,
		Dims: [3]Grid1D{
			NewGrid1D(n, b.Lo.X, b.Hi.X),
			NewGrid1D(n, b.Lo.Y, b.Hi.Y),
			NewGrid1D(n, b.Lo.Z, b.Hi.Z),
		},
	}
}

// NumPoints returns (n+1)^3, the number of tensor-product nodes.
func (g Grid3D) NumPoints() int {
	m := g.N + 1
	return m * m * m
}

// Point returns the tensor-product node with flat index
// idx = k1*(n+1)^2 + k2*(n+1) + k3.
func (g Grid3D) Point(idx int) geom.Vec3 {
	m := g.N + 1
	k3 := idx % m
	k2 := (idx / m) % m
	k1 := idx / (m * m)
	return geom.Vec3{
		X: g.Dims[0].Points[k1],
		Y: g.Dims[1].Points[k2],
		Z: g.Dims[2].Points[k3],
	}
}

// FlattenedPoints returns the coordinates of all (n+1)^3 tensor-product
// nodes as three parallel slices in flat-index order (see Point); this is the layout the
// potential-evaluation kernels stream over.
func (g Grid3D) FlattenedPoints() (px, py, pz []float64) {
	np := g.NumPoints()
	px = make([]float64, np)
	py = make([]float64, np)
	pz = make([]float64, np)
	g.FlattenedPointsInto(px, py, pz)
	return px, py, pz
}

// FlattenedPointsInto fills px, py, pz (each of length NumPoints) with the
// tensor-product node coordinates in flat-index order (see Point).
func (g Grid3D) FlattenedPointsInto(px, py, pz []float64) {
	m := g.N + 1
	idx := 0
	for k1 := 0; k1 < m; k1++ {
		x := g.Dims[0].Points[k1]
		for k2 := 0; k2 < m; k2++ {
			y := g.Dims[1].Points[k2]
			for k3 := 0; k3 < m; k3++ {
				px[idx] = x
				py[idx] = y
				pz[idx] = g.Dims[2].Points[k3]
				idx++
			}
		}
	}
}

// TransferLen returns the length of the buffer a degree-n Transfer is
// carved from: its three (n+1)x(n+1) matrices and two (n+1)^2 partial
// contractions.
func TransferLen(n int) int {
	m := n + 1
	return 5 * m * m
}

// Transfer carries nodal data between a parent grid and a child grid of
// the same degree whose box lies inside the parent's. Degree-n
// interpolation on the child's n+1 distinct points reproduces every
// degree-n polynomial, the parent's 1D basis L_k among them, so along axis
// d the transfer is one (n+1)x(n+1) matrix A_d[j][k] = L_k(s_j), the
// parent's basis at the child's points (the Lagrange form of Wang, Krasny
// and Tlupova). Up pushes a child's modified charges to the parent's
// points through the transpose, so a parent's charges are its children's
// summed; Down interpolates a parent's nodal values to the child's points.
// Each is three separable contractions in flat-index order (see Point),
// 3(n+1)^4 multiply-adds. Where a child axis collapses to one point, its
// modified charges sit at j = 0 alone (BasisAt's Kronecker delta), and
// row 0 of A_d carries them exactly.
type Transfer struct {
	m   int
	a   [3][]float64 // A_x, A_y, A_z: row j is the child point, column k the parent basis
	tmp [2][]float64 // two (n+1)^2 partial contractions
	up  kernel.TransferUp
}

// NewTransfer carves a degree-n transfer from buf, which must have length
// TransferLen(n); the transfer allocates nothing. It resolves Up's loop
// (kernel.ResolveTransferUp) once, here.
func NewTransfer(n int, buf []float64) Transfer {
	if len(buf) != TransferLen(n) {
		panic(fmt.Sprintf("chebyshev: NewTransfer buffer length %d, want %d", len(buf), TransferLen(n)))
	}
	m := n + 1
	mm := m * m
	part := func(i int) []float64 { return buf[i*mm : (i+1)*mm : (i+1)*mm] }
	return Transfer{
		m:   m,
		a:   [3][]float64{part(0), part(1), part(2)},
		tmp: [2][]float64{part(3), part(4)},
		up:  kernel.ResolveTransferUp(),
	}
}

// Set fills the matrices for parent grid p and child grid c, both of the
// transfer's degree, with p's 1D bases at c's 1D points (Grid1D.BasisAt).
func (tr Transfer) Set(p, c Grid3D) {
	m := tr.m
	for d, a := range tr.a {
		for j, s := range c.Dims[d].Points {
			p.Dims[d].BasisAt(s, a[j*m:(j+1)*m])
		}
	}
}

// Up adds the child's nodal weights w pushed through the transpose to the
// parent's: parent[k1,k2,k3] += sum over j of A_x[j1][k1] A_y[j2][k2]
// A_z[j3][k3] w[j1,j2,j3]. For each j1 it contracts the child's j1 slab
// along z and then y, and adds the result times A_x[j1][k1] to parent
// slab k1, so every parent value sums its terms in j1 order
// (kernel.TransferUp, on ZMM rows where the CPU has them).
//
//hot:path
func (tr Transfer) Up(w, parent []float64) {
	tr.up(tr.m, tr.a[0], tr.a[1], tr.a[2], w, parent, tr.tmp[0], tr.tmp[1])
}

// Down adds the parent's nodal values f interpolated at the child's points
// to the child's: child[j1,j2,j3] += sum over k of A_x[j1][k1] A_y[j2][k2]
// A_z[j3][k3] f[k1,k2,k3], the L2L step of a downward pass. For each j1 it
// contracts f along x, then y, then z into child slab j1.
//
//hot:path
func (tr Transfer) Down(f, child []float64) {
	m := tr.m
	mm := m * m
	ax, ay, az := tr.a[0], tr.a[1], tr.a[2]
	t1, t2 := tr.tmp[0], tr.tmp[1]
	for j1 := 0; j1 < m; j1++ {
		clear(t1) // t1[k2][k3] = sum_k1 A_x[j1][k1] f[k1][k2][k3]
		for k1, a := range ax[j1*m : (j1+1)*m] {
			axpy(t1, a, f[k1*mm:(k1+1)*mm])
		}
		clear(t2) // t2[j2][k3] = sum_k2 A_y[j2][k2] t1[k2][k3]
		for j2 := 0; j2 < m; j2++ {
			row := t2[j2*m : (j2+1)*m]
			for k2, a := range ay[j2*m : (j2+1)*m] {
				axpy(row, a, t1[k2*m:(k2+1)*m])
			}
		}
		slab := child[j1*mm : (j1+1)*mm]
		for j2 := 0; j2 < m; j2++ {
			row := t2[j2*m : (j2+1)*m]
			out := slab[j2*m : (j2+1)*m]
			for j3 := range out {
				var s float64
				for k3, a := range az[j3*m : (j3+1)*m] {
					s += a * row[k3]
				}
				out[j3] += s
			}
		}
	}
}

// axpy adds a*x to dst element by element; x is at least as long as dst.
//
//hot:path
func axpy(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] += a * x[i]
	}
}

// BasisAt evaluates the three 1D basis vectors at the coordinates of p. The
// value of the 3D tensor basis at node (k1,k2,k3) is the product
// bx[k1]*by[k2]*bz[k3]. dst slices must each have length n+1.
func (g Grid3D) BasisAt(p geom.Vec3, bx, by, bz []float64) {
	g.Dims[0].BasisAt(p.X, bx)
	g.Dims[1].BasisAt(p.Y, by)
	g.Dims[2].BasisAt(p.Z, bz)
}

// Interpolate evaluates the 3D tensor-product interpolant with nodal values
// f (length (n+1)^3, in flat-index order) at the point p.
func (g Grid3D) Interpolate(f []float64, p geom.Vec3) float64 {
	if len(f) != g.NumPoints() {
		panic(fmt.Sprintf("chebyshev: Interpolate values length %d, want %d", len(f), g.NumPoints()))
	}
	m := g.N + 1
	bx := make([]float64, m)
	by := make([]float64, m)
	bz := make([]float64, m)
	g.BasisAt(p, bx, by, bz)
	var sum float64
	idx := 0
	for k1 := 0; k1 < m; k1++ {
		for k2 := 0; k2 < m; k2++ {
			c := bx[k1] * by[k2]
			for k3 := 0; k3 < m; k3++ {
				sum += c * bz[k3] * f[idx]
				idx++
			}
		}
	}
	return sum
}
