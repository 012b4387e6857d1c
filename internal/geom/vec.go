// Package geom provides the small geometric primitives used throughout the
// treecode: 3-vectors, axis-aligned bounding boxes, and the center/radius
// summaries that the multipole acceptance criterion operates on.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or displacement in R^3.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Dot returns the Euclidean inner product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Component returns the d-th coordinate of v, d in {0,1,2}.
func (v Vec3) Component(d int) float64 {
	switch d {
	case 0:
		return v.X
	case 1:
		return v.Y
	case 2:
		return v.Z
	}
	panic(fmt.Sprintf("geom: invalid component index %d", d))
}

// WithComponent returns a copy of v with the d-th coordinate replaced by x.
func (v Vec3) WithComponent(d int, x float64) Vec3 {
	switch d {
	case 0:
		v.X = x
	case 1:
		v.Y = x
	case 2:
		v.Z = x
	default:
		panic(fmt.Sprintf("geom: invalid component index %d", d))
	}
	return v
}

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }
