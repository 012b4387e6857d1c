package direct

import (
	"math"
	"math/rand"
	"testing"

	"barytree/internal/kernel"
	"barytree/internal/particle"
)

func TestFieldsTwoParticles(t *testing.T) {
	s := particle.NewSet(2)
	s.Append(0, 0, 0, 1)
	s.Append(2, 0, 0, 3)
	k := kernel.Coulomb{}
	phi, gx, gy, gz := Fields(k, s, s)
	// phi[0] = 3/2; d/dx (3/|x-y|) at x=0 toward y=+2: 3 * (x-y)/r^3 *
	// (-1) = 3*( -2 )/8 * ... = +3*2/8 = 0.75? Compute: grad 1/r =
	// -(x-y)/r^3; x-y = (-2,0,0), r=2 -> -(-2)/8 = +0.25, times q=3 -> 0.75.
	if phi[0] != 1.5 {
		t.Errorf("phi[0] = %g, want 1.5", phi[0])
	}
	if math.Abs(gx[0]-0.75) > 1e-15 || gy[0] != 0 || gz[0] != 0 {
		t.Errorf("grad[0] = (%g,%g,%g), want (0.75,0,0)", gx[0], gy[0], gz[0])
	}
	// Newton's third law flavor: the gradient at particle 1 points the
	// opposite way with magnitude scaled by the other charge.
	if math.Abs(gx[1]+0.25) > 1e-15 {
		t.Errorf("grad[1].x = %g, want -0.25", gx[1])
	}
}

func TestFieldsMatchFiniteDifferenceOfPotential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sources := particle.UniformCube(300, rng)
	k := kernel.Yukawa{Kappa: 0.7}
	// Probe at a point well outside the cube.
	probe := particle.NewSet(1)
	probe.Append(3, 0.5, -0.25, 0)
	_, gx, gy, gz := Fields(k, probe, sources)

	const h = 1e-6
	shift := func(dx, dy, dz float64) float64 {
		p := particle.NewSet(1)
		p.Append(3+dx, 0.5+dy, -0.25+dz, 0)
		return Sum(k, p, sources)[0]
	}
	fdx := (shift(h, 0, 0) - shift(-h, 0, 0)) / (2 * h)
	fdy := (shift(0, h, 0) - shift(0, -h, 0)) / (2 * h)
	fdz := (shift(0, 0, h) - shift(0, 0, -h)) / (2 * h)
	scale := math.Abs(fdx) + math.Abs(fdy) + math.Abs(fdz) + 1e-12
	if math.Abs(gx[0]-fdx)/scale > 1e-5 || math.Abs(gy[0]-fdy)/scale > 1e-5 || math.Abs(gz[0]-fdz)/scale > 1e-5 {
		t.Errorf("analytic (%g,%g,%g) vs FD (%g,%g,%g)", gx[0], gy[0], gz[0], fdx, fdy, fdz)
	}
}

// TestFieldsMatchScalarChains pins Fields' cascade — the softened-Coulomb
// 4-wide assembly tile where installed, the width-1 EvalGrad loop for the
// rest — to per-target EvalGrad chains accumulated from zero, bit for
// bit, with the assembly on and off.
func TestFieldsMatchScalarChains(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := particle.UniformCube(403, rng)
	k := kernel.RegularizedCoulomb{Eps: 0.01}
	check := func(t *testing.T) {
		phi, gx, gy, gz := Fields(k, pts, pts)
		for i := range phi {
			var p, x, y, z float64
			for j := 0; j < pts.Len(); j++ {
				g, dx, dy, dz := k.EvalGrad(pts.X[i], pts.Y[i], pts.Z[i], pts.X[j], pts.Y[j], pts.Z[j])
				p += g * pts.Q[j]
				x += dx * pts.Q[j]
				y += dy * pts.Q[j]
				z += dz * pts.Q[j]
			}
			if phi[i] != p || gx[i] != x || gy[i] != y || gz[i] != z {
				t.Fatalf("target %d: (%v %v %v %v) != chains (%v %v %v %v)", i, phi[i], gx[i], gy[i], gz[i], p, x, y, z)
			}
		}
	}
	t.Run("installed", check)
	t.Run("pure-go", func(t *testing.T) {
		prev := kernel.SetAsmKernels(false)
		defer kernel.SetAsmKernels(prev)
		check(t)
	})
}

func TestFieldsEmptySources(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tg := particle.UniformCube(5, rng)
	phi, gx, _, _ := Fields(kernel.Coulomb{}, tg, particle.NewSet(0))
	for i := range phi {
		if phi[i] != 0 || gx[i] != 0 {
			t.Fatal("no sources but nonzero field")
		}
	}
}
