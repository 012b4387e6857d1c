package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecArithmetic(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 1*4-2*5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := a.Dist(a); got != 0 {
		t.Errorf("Dist(a,a) = %v", got)
	}
}

func TestVecComponents(t *testing.T) {
	v := Vec3{7, 8, 9}
	for d, want := range []float64{7, 8, 9} {
		if got := v.Component(d); got != want {
			t.Errorf("Component(%d) = %v, want %v", d, got, want)
		}
	}
	if got := v.WithComponent(1, -1); got != (Vec3{7, -1, 9}) {
		t.Errorf("WithComponent = %v", got)
	}
	// Original unchanged (value semantics).
	if v != (Vec3{7, 8, 9}) {
		t.Errorf("WithComponent mutated receiver: %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("Component(3) should panic")
		}
	}()
	v.Component(3)
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clamp(ax), clamp(ay), clamp(az)}
		b := Vec3{clamp(bx), clamp(by), clamp(bz)}
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clamp maps arbitrary float64s (incl. NaN/Inf from quick) into a sane range.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestEmptyBox(t *testing.T) {
	e := EmptyBox()
	if !e.IsEmpty() {
		t.Fatal("EmptyBox not empty")
	}
	if e.Radius() != 0 || e.Volume() != 0 {
		t.Errorf("empty box radius=%v volume=%v", e.Radius(), e.Volume())
	}
	p := Vec3{1, -2, 3}
	if got := e.Extend(p); got != (Box{Lo: p, Hi: p}) {
		t.Errorf("empty extended by %v = %v", p, got)
	}
}

func TestBoxExtendContains(t *testing.T) {
	b := EmptyBox()
	pts := []Vec3{{0, 0, 0}, {1, 2, -1}, {-3, 0.5, 4}}
	for _, p := range pts {
		b = b.Extend(p)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("box %v does not contain %v", b, p)
		}
	}
	if b.Contains(Vec3{10, 0, 0}) {
		t.Error("box contains far point")
	}
	if want := (Box{Lo: Vec3{-3, 0, -1}, Hi: Vec3{1, 2, 4}}); b != want {
		t.Errorf("box = %v, want %v", b, want)
	}
}

func TestBoxGeometry(t *testing.T) {
	b := Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{2, 4, 4}}
	if c := b.Center(); c != (Vec3{1, 2, 2}) {
		t.Errorf("Center = %v", c)
	}
	if s := b.Size(); s != (Vec3{2, 4, 4}) {
		t.Errorf("Size = %v", s)
	}
	if r := b.Radius(); r != 3 {
		t.Errorf("Radius = %v, want 3", r)
	}
	if v := b.Volume(); v != 32 {
		t.Errorf("Volume = %v", v)
	}
	long, dim := b.LongestSide()
	if long != 4 || dim != 1 {
		t.Errorf("LongestSide = %v,%v", long, dim)
	}
	short, dim := b.ShortestSide()
	if short != 2 || dim != 0 {
		t.Errorf("ShortestSide = %v,%v", short, dim)
	}
	if ar := b.AspectRatio(); ar != 2 {
		t.Errorf("AspectRatio = %v", ar)
	}
	lo, hi := b.Interval(2)
	if lo != 0 || hi != 4 {
		t.Errorf("Interval(2) = %v,%v", lo, hi)
	}
}

func TestContainsBox(t *testing.T) {
	outer := Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{10, 10, 10}}
	inner := Box{Lo: Vec3{1, 1, 1}, Hi: Vec3{9, 9, 9}}
	if !outer.ContainsBox(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsBox(outer) {
		t.Error("inner should not contain outer")
	}
	if !outer.ContainsBox(EmptyBox()) {
		t.Error("any box contains the empty box")
	}
}

func TestBoundingBox(t *testing.T) {
	xs := []float64{0, 1, -2}
	ys := []float64{5, -1, 3}
	zs := []float64{0, 0, 7}
	b := BoundingBox(xs, ys, zs)
	want := Box{Lo: Vec3{-2, -1, 0}, Hi: Vec3{1, 5, 7}}
	if b != want {
		t.Errorf("BoundingBox = %v, want %v", b, want)
	}
	if !BoundingBox(nil, nil, nil).IsEmpty() {
		t.Error("BoundingBox of nothing should be empty")
	}
}

func TestDegenerateBoxAspect(t *testing.T) {
	flat := Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{1, 1, 0}}
	if !math.IsInf(flat.AspectRatio(), 1) {
		t.Errorf("flat box aspect = %v, want +Inf", flat.AspectRatio())
	}
	if !math.IsNaN(EmptyBox().AspectRatio()) {
		t.Error("empty box aspect should be NaN")
	}
}
