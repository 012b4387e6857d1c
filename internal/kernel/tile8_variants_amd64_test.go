//go:build amd64

package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// TestCoulombTile8Variants pins the ZMM 8-wide Coulomb tile, called
// directly rather than through the resolver, against the width-1 loop,
// bit for bit. The tile's Goldschmidt fast path, divider patch path (r2
// below 2^-512 or overflowed to +Inf), and their mid-block hand-offs only
// differ when coordinate magnitudes are driven across the exponent range,
// so the sweep here goes well past both ends.
func TestCoulombTile8Variants(t *testing.T) {
	t.Run("zmm", func(t *testing.T) {
		if !cpuHasAVX() || !cpuHasAVX512VL() {
			t.Skip("no AVX-512VL")
		}
		rng := rand.New(rand.NewSource(53))
		for _, scale := range []float64{0, -300, -500, -510, -520, -538, 300, 500, 511} {
			mag := math.Ldexp(1, int(scale))
			for _, n := range tileTestSizes {
				tx, ty, tz := tileTestTargets(rng, 8)
				for i := range tx {
					tx[i], ty[i], tz[i] = tx[i]*mag, ty[i]*mag, tz[i]*mag
				}
				sx, sy, sz, q := blockTestSources(rng, n, tx[1], ty[1], tz[1])
				if n > 2 {
					// Second self term in the other 4-lane group, at an
					// odd source index so the B stream sees it.
					sx[1], sy[1], sz[1] = tx[6], ty[6], tz[6]
				}
				phi0 := randomPhi(rng, 8)
				want := append([]float64(nil), phi0...)
				Coulomb{}.tile1(tx, ty, tz, sx, sy, sz, q, want)
				got := append([]float64(nil), phi0...)
				asm8(coulombTile8ZMM).tile(tx, ty, tz, sx, sy, sz, q, got)
				if !sameBits(got, want) {
					t.Fatalf("scale=2^%g n=%d: %v != scalar %v", scale, n, got, want)
				}
			}
		}
	})
}
