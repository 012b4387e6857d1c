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
