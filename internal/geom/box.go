package geom

import (
	"fmt"
	"math"
)

// Box is an axis-aligned bounding box, represented by its lower and upper
// corners.
type Box struct {
	Lo, Hi Vec3
}

// EmptyBox returns a box that contains no points and acts as the identity
// element for Extend.
func EmptyBox() Box {
	inf := math.Inf(1)
	return Box{Lo: Vec3{inf, inf, inf}, Hi: Vec3{-inf, -inf, -inf}}
}

// IsEmpty reports whether the box contains no points.
func (b Box) IsEmpty() bool {
	return b.Lo.X > b.Hi.X || b.Lo.Y > b.Hi.Y || b.Lo.Z > b.Hi.Z
}

// Extend returns the smallest box containing both b and the point p.
func (b Box) Extend(p Vec3) Box {
	return Box{
		Lo: Vec3{math.Min(b.Lo.X, p.X), math.Min(b.Lo.Y, p.Y), math.Min(b.Lo.Z, p.Z)},
		Hi: Vec3{math.Max(b.Hi.X, p.X), math.Max(b.Hi.Y, p.Y), math.Max(b.Hi.Z, p.Z)},
	}
}

// Contains reports whether p lies inside b (boundaries inclusive).
func (b Box) Contains(p Vec3) bool {
	return p.X >= b.Lo.X && p.X <= b.Hi.X &&
		p.Y >= b.Lo.Y && p.Y <= b.Hi.Y &&
		p.Z >= b.Lo.Z && p.Z <= b.Hi.Z
}

// ContainsBox reports whether c lies entirely inside b.
func (b Box) ContainsBox(c Box) bool {
	if c.IsEmpty() {
		return true
	}
	return b.Contains(c.Lo) && b.Contains(c.Hi)
}

// Center returns the midpoint of the box.
func (b Box) Center() Vec3 {
	return Vec3{(b.Lo.X + b.Hi.X) / 2, (b.Lo.Y + b.Hi.Y) / 2, (b.Lo.Z + b.Hi.Z) / 2}
}

// Size returns the edge lengths of the box.
func (b Box) Size() Vec3 {
	return Vec3{b.Hi.X - b.Lo.X, b.Hi.Y - b.Lo.Y, b.Hi.Z - b.Lo.Z}
}

// Radius returns half the length of the box diagonal. This is the cluster
// and batch "radius" used in the multipole acceptance criterion (13).
func (b Box) Radius() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.Size().Norm() / 2
}

// Volume returns the volume of the box (0 for empty or degenerate boxes).
func (b Box) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	s := b.Size()
	return s.X * s.Y * s.Z
}

// LongestSide returns the length of the longest edge and its dimension index.
func (b Box) LongestSide() (length float64, dim int) {
	s := b.Size()
	length, dim = s.X, 0
	if s.Y > length {
		length, dim = s.Y, 1
	}
	if s.Z > length {
		length, dim = s.Z, 2
	}
	return length, dim
}

// ShortestSide returns the length of the shortest edge and its dimension
// index.
func (b Box) ShortestSide() (length float64, dim int) {
	s := b.Size()
	length, dim = s.X, 0
	if s.Y < length {
		length, dim = s.Y, 1
	}
	if s.Z < length {
		length, dim = s.Z, 2
	}
	return length, dim
}

// AspectRatio returns the ratio of the longest to the shortest edge. A cube
// has aspect ratio 1. Degenerate boxes (zero shortest side) return +Inf,
// and empty boxes return NaN.
func (b Box) AspectRatio() float64 {
	if b.IsEmpty() {
		return math.NaN()
	}
	long, _ := b.LongestSide()
	short, _ := b.ShortestSide()
	return long / short
}

// Interval returns the [lo, hi] extent of the box along dimension d.
func (b Box) Interval(d int) (lo, hi float64) {
	return b.Lo.Component(d), b.Hi.Component(d)
}

// String implements fmt.Stringer.
func (b Box) String() string { return fmt.Sprintf("[%v, %v]", b.Lo, b.Hi) }

// BoundingBox returns the minimal box containing the points with the given
// coordinate slices. The three slices must have equal length; an empty input
// yields EmptyBox().
func BoundingBox(xs, ys, zs []float64) Box {
	b := EmptyBox()
	for i := range xs {
		b = b.Extend(Vec3{xs[i], ys[i], zs[i]})
	}
	return b
}
