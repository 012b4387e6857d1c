package chebyshev

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"barytree/internal/geom"
)

func TestPointsEndpointsExact(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 13} {
		pts := Points(n, -0.3, 1.7)
		if pts[0] != 1.7 || pts[n] != -0.3 {
			t.Errorf("n=%d: endpoints %v, %v", n, pts[0], pts[n])
		}
		if len(pts) != n+1 {
			t.Errorf("n=%d: %d points", n, len(pts))
		}
		// Descending order (cos is decreasing on [0, pi]).
		for k := 1; k <= n; k++ {
			if pts[k] >= pts[k-1] {
				t.Errorf("n=%d: points not strictly descending at %d", n, k)
			}
		}
	}
}

func TestPointsSymmetric(t *testing.T) {
	// On a symmetric interval the nodes are symmetric about the center.
	pts := Points(8, -1, 1)
	for k := 0; k <= 8; k++ {
		if d := pts[k] + pts[8-k]; math.Abs(d) > 1e-15 {
			t.Errorf("points %d and %d not symmetric: sum %g", k, 8-k, d)
		}
	}
	// cos(pi/2) is not exactly representable; the midpoint lands within
	// one ulp of zero.
	if math.Abs(pts[4]) > 1e-16 {
		t.Errorf("middle point %g, want ~0", pts[4])
	}
}

func TestWeights(t *testing.T) {
	w := Weights(4)
	want := []float64{0.5, -1, 1, -1, 0.5}
	for k := range want {
		if w[k] != want[k] {
			t.Errorf("w[%d] = %g, want %g", k, w[k], want[k])
		}
	}
}

func TestBasisPartitionOfUnity(t *testing.T) {
	g := NewGrid1D(7, -2, 3)
	dst := make([]float64, 8)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		x := -2 + 5*rng.Float64()
		g.BasisAt(x, dst)
		var sum float64
		for _, v := range dst {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("basis at %g sums to %g", x, sum)
		}
	}
}

func TestBasisKroneckerAtNodes(t *testing.T) {
	// Removable singularity handling: L_k(s_j) = delta_jk exactly.
	g := NewGrid1D(6, 0, 1)
	dst := make([]float64, 7)
	for j, s := range g.Points {
		g.BasisAt(s, dst)
		for k, v := range dst {
			want := 0.0
			if k == j {
				want = 1
			}
			if v != want {
				t.Errorf("L_%d(s_%d) = %g, want %g", k, j, v, want)
			}
		}
	}
}

func TestInterpolateExactOnPolynomials(t *testing.T) {
	// Degree-n interpolation reproduces polynomials of degree <= n.
	for _, n := range []int{1, 3, 6, 10} {
		g := NewGrid1D(n, -1.5, 2.5)
		// p(x) = sum c_i x^i with degree n.
		coef := make([]float64, n+1)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range coef {
			coef[i] = 2*rng.Float64() - 1
		}
		p := func(x float64) float64 {
			v := 0.0
			for i := n; i >= 0; i-- {
				v = v*x + coef[i]
			}
			return v
		}
		f := make([]float64, n+1)
		for k, s := range g.Points {
			f[k] = p(s)
		}
		for trial := 0; trial < 50; trial++ {
			x := -1.5 + 4*rng.Float64()
			got := g.Interpolate(f, x)
			want := p(x)
			if math.Abs(got-want) > 1e-10*math.Max(1, math.Abs(want)) {
				t.Fatalf("n=%d: interp(%g) = %.15g, want %.15g", n, x, got, want)
			}
		}
	}
}

func TestInterpolatePropertyPolynomialDegree3(t *testing.T) {
	g := NewGrid1D(5, -1, 1)
	f := func(a, b, c, d, xr float64) bool {
		for _, v := range []float64{a, b, c, d, xr} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a, b, c, d = math.Mod(a, 100), math.Mod(b, 100), math.Mod(c, 100), math.Mod(d, 100)
		x := math.Mod(xr, 1)
		p := func(t float64) float64 { return a + t*(b+t*(c+t*d)) }
		vals := make([]float64, 6)
		for k, s := range g.Points {
			vals[k] = p(s)
		}
		got := g.Interpolate(vals, x)
		want := p(x)
		scale := math.Max(1, math.Abs(a)+math.Abs(b)+math.Abs(c)+math.Abs(d))
		return math.Abs(got-want) <= 1e-10*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInterpolateAtNodesReturnsNodalValues(t *testing.T) {
	g := NewGrid1D(9, 0, 10)
	f := make([]float64, 10)
	for i := range f {
		f[i] = float64(i * i)
	}
	for k, s := range g.Points {
		if got := g.Interpolate(f, s); got != f[k] {
			t.Errorf("interp at node %d = %g, want %g", k, got, f[k])
		}
	}
}

func TestRungeFunctionConvergence(t *testing.T) {
	// Chebyshev interpolation of 1/(1+25x^2) must converge (unlike
	// equispaced interpolation).
	f := func(x float64) float64 { return 1 / (1 + 25*x*x) }
	var prev float64 = math.Inf(1)
	for _, n := range []int{4, 8, 16, 32, 64} {
		g := NewGrid1D(n, -1, 1)
		vals := make([]float64, n+1)
		for k, s := range g.Points {
			vals[k] = f(s)
		}
		var maxErr float64
		for i := 0; i <= 200; i++ {
			x := -1 + 2*float64(i)/200
			if e := math.Abs(g.Interpolate(vals, x) - f(x)); e > maxErr {
				maxErr = e
			}
		}
		if n >= 16 && maxErr > prev {
			t.Errorf("n=%d: error %g did not decrease from %g", n, maxErr, prev)
		}
		prev = maxErr
	}
	// The Bernstein-ellipse rate for poles at +/- i/5 is rho ~ 1.22, so
	// the n=64 error is ~3e-6; equispaced interpolation would diverge.
	if prev > 1e-5 {
		t.Errorf("n=64 error %g too large", prev)
	}
}

func TestGrid1DPanicsOnBadDegree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for degree 0")
		}
	}()
	NewGrid1D(0, 0, 1)
}

func TestGrid1DSwapsInterval(t *testing.T) {
	g := NewGrid1D(3, 5, 2)
	if g.A != 2 || g.B != 5 {
		t.Errorf("interval = [%g, %g], want [2, 5]", g.A, g.B)
	}
}

func TestGrid3DPointsAndIndexing(t *testing.T) {
	box := geom.Box{Lo: geom.Vec3{X: -1, Y: 0, Z: 2}, Hi: geom.Vec3{X: 1, Y: 3, Z: 4}}
	g := NewGrid3D(3, box)
	if g.NumPoints() != 64 {
		t.Fatalf("NumPoints = %d", g.NumPoints())
	}
	for k1 := 0; k1 < 4; k1++ {
		for k2 := 0; k2 < 4; k2++ {
			for k3 := 0; k3 < 4; k3++ {
				idx := (k1*4+k2)*4 + k3
				p := g.Point(idx)
				want := geom.Vec3{
					X: g.Dims[0].Points[k1],
					Y: g.Dims[1].Points[k2],
					Z: g.Dims[2].Points[k3],
				}
				if p != want {
					t.Fatalf("Point(%d) = %v, want %v", idx, p, want)
				}
				if !box.Contains(p) {
					t.Fatalf("point %v escapes box %v", p, box)
				}
			}
		}
	}
}

func TestGrid3DFlattenedPointsMatchPoint(t *testing.T) {
	box := geom.Box{Lo: geom.Vec3{X: 0, Y: 0, Z: 0}, Hi: geom.Vec3{X: 1, Y: 2, Z: 3}}
	g := NewGrid3D(4, box)
	px, py, pz := g.FlattenedPoints()
	for idx := 0; idx < g.NumPoints(); idx++ {
		p := g.Point(idx)
		if px[idx] != p.X || py[idx] != p.Y || pz[idx] != p.Z {
			t.Fatalf("flattened point %d = (%g,%g,%g), want %v", idx, px[idx], py[idx], pz[idx], p)
		}
	}
}

func TestGrid3DInterpolateTrilinear(t *testing.T) {
	// A trilinear function is reproduced exactly by any degree >= 1 grid.
	box := geom.Box{Lo: geom.Vec3{X: -1, Y: -1, Z: -1}, Hi: geom.Vec3{X: 1, Y: 1, Z: 1}}
	g := NewGrid3D(2, box)
	fn := func(p geom.Vec3) float64 { return 2 + 3*p.X - p.Y + 0.5*p.Z + p.X*p.Y*p.Z }
	vals := make([]float64, g.NumPoints())
	for i := range vals {
		vals[i] = fn(g.Point(i))
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		p := geom.Vec3{X: 2*rng.Float64() - 1, Y: 2*rng.Float64() - 1, Z: 2*rng.Float64() - 1}
		got := g.Interpolate(vals, p)
		want := fn(p)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("interp %v = %.15g, want %.15g", p, got, want)
		}
	}
}

func TestGrid3DSmoothKernelConvergence(t *testing.T) {
	// Interpolating a smooth kernel slice G(x0, .) over a well-separated
	// box must converge geometrically in n — the foundation of the BLTC
	// approximation (equation (8)).
	box := geom.Box{Lo: geom.Vec3{X: 2, Y: 2, Z: 2}, Hi: geom.Vec3{X: 3, Y: 3, Z: 3}}
	target := geom.Vec3{X: 0, Y: 0, Z: 0}
	kernelAt := func(p geom.Vec3) float64 { return 1 / target.Sub(p).Norm() }
	rng := rand.New(rand.NewSource(3))
	var prev float64 = math.Inf(1)
	for _, n := range []int{2, 4, 6, 8} {
		g := NewGrid3D(n, box)
		vals := make([]float64, g.NumPoints())
		for i := range vals {
			vals[i] = kernelAt(g.Point(i))
		}
		var maxErr float64
		for trial := 0; trial < 100; trial++ {
			p := geom.Vec3{X: 2 + rng.Float64(), Y: 2 + rng.Float64(), Z: 2 + rng.Float64()}
			if e := math.Abs(g.Interpolate(vals, p) - kernelAt(p)); e > maxErr {
				maxErr = e
			}
		}
		if maxErr >= prev {
			t.Errorf("n=%d: kernel interpolation error %g did not decrease from %g", n, maxErr, prev)
		}
		prev = maxErr
	}
	if prev > 1e-8 {
		t.Errorf("n=8 kernel interpolation error %g too large", prev)
	}
}

func TestSingularityTolIsSmallestNormal(t *testing.T) {
	got := float64(SingularityTol)
	want := float64(2.2250738585072014e-308) // smallest positive normal double
	if got != want {
		t.Errorf("SingularityTol = %g, want %g", got, want)
	}
	// It must be the normal/subnormal boundary: halving it produces a
	// subnormal.
	if math.Float64bits(got)>>52 == 0 {
		t.Error("SingularityTol is subnormal")
	}
	if math.Float64bits(got/2)>>52 != 0 {
		t.Error("SingularityTol/2 should be subnormal")
	}
}

// TestTransferDownUp pins a Transfer's two contractions on a child box
// inside its parent's that shares the parent's low x face and collapses
// z to one point: Down matches Grid3D.Interpolate at every child point,
// and Up is Down's transpose, sum_k Up(w)[k] f[k] = sum_j w[j] Down(f)[j],
// both to rounding.
func TestTransferDownUp(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parent := geom.Box{Lo: geom.Vec3{X: -1, Y: 0, Z: 2}, Hi: geom.Vec3{X: 1, Y: 3, Z: 2.5}}
	child := geom.Box{Lo: geom.Vec3{X: -1, Y: 0.4, Z: 2.1}, Hi: geom.Vec3{X: 0.2, Y: 1.9, Z: 2.1}}
	for _, n := range []int{1, 4, 10} {
		p, c := NewGrid3D(n, parent), NewGrid3D(n, child)
		tr := NewTransfer(n, make([]float64, TransferLen(n)))
		tr.Set(p, c)
		np := p.NumPoints()
		f, w := make([]float64, np), make([]float64, np)
		for i := range f {
			f[i], w[i] = 2*rng.Float64()-1, 2*rng.Float64()-1
		}
		down, up := make([]float64, np), make([]float64, np)
		tr.Down(f, down)
		tr.Up(w, up)
		var lhs, rhs, scale float64
		for j := range down {
			want := p.Interpolate(f, c.Point(j))
			if math.Abs(down[j]-want) > 1e-13 {
				t.Fatalf("n=%d child point %d: Down = %v, Interpolate = %v", n, j, down[j], want)
			}
			lhs += up[j] * f[j]
			rhs += w[j] * down[j]
			scale += math.Abs(w[j])
		}
		if math.Abs(lhs-rhs) > 1e-13*scale {
			t.Fatalf("n=%d: <Up(w), f> = %v, <w, Down(f)> = %v", n, lhs, rhs)
		}
	}
}
