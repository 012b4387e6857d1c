// Package particle provides structure-of-arrays particle storage and the
// synthetic particle distributions used by the paper's experiments
// (uniformly random points in the [-1,1]^3 cube with charges uniform on
// [-1,1]) plus additional distributions for broader testing.
package particle

import (
	"fmt"
	"math"
	"math/rand"

	"barytree/internal/geom"
)

// Set is a structure-of-arrays collection of charged particles. The SoA
// layout matches what both the CPU inner loops and the simulated GPU
// kernels stream over.
type Set struct {
	X, Y, Z []float64 // coordinates
	Q       []float64 // charges (or masses, or quadrature weights)
}

// NewSet returns an empty set with capacity for n particles.
func NewSet(n int) *Set {
	return &Set{
		X: make([]float64, 0, n),
		Y: make([]float64, 0, n),
		Z: make([]float64, 0, n),
		Q: make([]float64, 0, n),
	}
}

// Len returns the number of particles.
func (s *Set) Len() int { return len(s.X) }

// Append adds one particle.
func (s *Set) Append(x, y, z, q float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Z = append(s.Z, z)
	s.Q = append(s.Q, q)
}

// At returns the position of particle i.
func (s *Set) At(i int) geom.Vec3 { return geom.Vec3{X: s.X[i], Y: s.Y[i], Z: s.Z[i]} }

// Swap exchanges particles i and j.
func (s *Set) Swap(i, j int) {
	s.X[i], s.X[j] = s.X[j], s.X[i]
	s.Y[i], s.Y[j] = s.Y[j], s.Y[i]
	s.Z[i], s.Z[j] = s.Z[j], s.Z[i]
	s.Q[i], s.Q[j] = s.Q[j], s.Q[i]
}

// Slice returns a view of particles [lo, hi). The view shares storage with s.
func (s *Set) Slice(lo, hi int) *Set {
	return &Set{X: s.X[lo:hi], Y: s.Y[lo:hi], Z: s.Z[lo:hi], Q: s.Q[lo:hi]}
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{
		X: make([]float64, s.Len()),
		Y: make([]float64, s.Len()),
		Z: make([]float64, s.Len()),
		Q: make([]float64, s.Len()),
	}
	copy(c.X, s.X)
	copy(c.Y, s.Y)
	copy(c.Z, s.Z)
	copy(c.Q, s.Q)
	return c
}

// Bounds returns the minimal axis-aligned bounding box of the particles.
func (s *Set) Bounds() geom.Box { return geom.BoundingBox(s.X, s.Y, s.Z) }

// TotalCharge returns the sum of all charges.
func (s *Set) TotalCharge() float64 {
	var t float64
	for _, q := range s.Q {
		t += q
	}
	return t
}

// Validate checks structural invariants (equal slice lengths, finite
// coordinates) and returns a descriptive error on the first violation.
func (s *Set) Validate() error {
	n := len(s.X)
	if len(s.Y) != n || len(s.Z) != n || len(s.Q) != n {
		return fmt.Errorf("particle: ragged SoA lengths x=%d y=%d z=%d q=%d",
			len(s.X), len(s.Y), len(s.Z), len(s.Q))
	}
	ys, zs, qs := s.Y[:n], s.Z[:n], s.Q[:n]
	for i, x := range s.X {
		// v-v is 0 for a finite v and NaN for NaN or ±Inf, and a NaN term
		// makes the sum NaN.
		if (x-x)+(ys[i]-ys[i])+(zs[i]-zs[i])+(qs[i]-qs[i]) != 0 {
			return fmt.Errorf("particle: non-finite value at index %d", i)
		}
	}
	return nil
}

// Permutation is a reordering of particle indices: perm[newIndex] = oldIndex.
// Tree construction sorts particles into leaf-contiguous order; the
// permutation maps results back to the caller's original ordering.
type Permutation []int

// Identity returns the identity permutation of length n.
func Identity(n int) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Inverse returns the inverse permutation.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for newIdx, oldIdx := range p {
		inv[oldIdx] = newIdx
	}
	return inv
}

// Valid reports whether p is a bijection on [0, len(p)).
func (p Permutation) Valid() bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// GatherInto writes src[perm[i]] into dst[i] for every i. dst and src must
// have length len(p) and must not alias.
func (p Permutation) GatherInto(dst, src []float64) {
	if len(dst) != len(p) || len(src) != len(p) {
		panic("particle: GatherInto length mismatch")
	}
	for i, old := range p {
		dst[i] = src[old]
	}
}

// ScatterInto writes src[i] into dst[perm[i]] for every i: it undoes a
// gather, mapping tree-ordered values back to original order.
func (p Permutation) ScatterInto(dst, src []float64) {
	if len(dst) != len(p) || len(src) != len(p) {
		panic("particle: ScatterInto length mismatch")
	}
	for i, old := range p {
		dst[old] = src[i]
	}
}

// UniformCube returns n particles uniformly random in [-1,1]^3 with charges
// uniform on [-1,1], the distribution used throughout the paper's Section 4.
func UniformCube(n int, rng *rand.Rand) *Set {
	s := NewSet(n)
	for i := 0; i < n; i++ {
		s.Append(
			2*rng.Float64()-1,
			2*rng.Float64()-1,
			2*rng.Float64()-1,
			2*rng.Float64()-1,
		)
	}
	return s
}

// Plummer returns n equal-mass particles drawn from the Plummer sphere with
// scale radius a, the classic gravitational N-body test distribution. Each
// particle carries mass 1/n.
func Plummer(n int, a float64, rng *rand.Rand) *Set {
	s := NewSet(n)
	for i := 0; i < n; i++ {
		// Inverse-transform sample of the Plummer cumulative mass profile.
		m := rng.Float64()
		// Guard against the unbounded tail: clamp the outermost fraction.
		if m > 0.999 {
			m = 0.999
		}
		r := a / math.Sqrt(math.Pow(m, -2.0/3.0)-1)
		// Uniform direction on the sphere.
		u := 2*rng.Float64() - 1
		phi := 2 * math.Pi * rng.Float64()
		st := math.Sqrt(1 - u*u)
		s.Append(r*st*math.Cos(phi), r*st*math.Sin(phi), r*u, 1/float64(n))
	}
	return s
}

// GaussianBlob returns n particles with coordinates drawn independently from
// N(0, sigma^2) and charges uniform on [-1,1]; it exercises strongly
// non-uniform octrees.
func GaussianBlob(n int, sigma float64, rng *rand.Rand) *Set {
	s := NewSet(n)
	for i := 0; i < n; i++ {
		s.Append(
			sigma*rng.NormFloat64(),
			sigma*rng.NormFloat64(),
			sigma*rng.NormFloat64(),
			2*rng.Float64()-1,
		)
	}
	return s
}

// Lattice returns particles on a regular m x m x m grid spanning [-1,1]^3
// with unit charges; deterministic, used by accuracy golden tests. The
// returned set has m^3 particles.
func Lattice(m int) *Set {
	s := NewSet(m * m * m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			for k := 0; k < m; k++ {
				coord := func(t int) float64 {
					if m == 1 {
						return 0
					}
					return -1 + 2*float64(t)/float64(m-1)
				}
				s.Append(coord(i), coord(j), coord(k), 1)
			}
		}
	}
	return s
}
