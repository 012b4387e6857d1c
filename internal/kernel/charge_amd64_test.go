//go:build amd64

package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// TestChargeRowsSlowLanes pins which particles the ZMM rows loop hands
// back to the Go path: none strictly inside the box, and exactly those on
// a grid point, with a NaN coordinate, or past the 2^±900 guard. So
// TestChargeRowsBitIdentical's cases run the vector lanes, not only the
// Go path.
func TestChargeRowsSlowLanes(t *testing.T) {
	if chargeRowsAsm == nil {
		t.Skipf("no assembly charge rows here (CPU features %q); it needs avx512vl", CPUFeatures())
	}
	rng := rand.New(rand.NewSource(28))
	for _, m := range []int{2, 7, 9, 13} {
		for _, np := range []int{1, 8, 11, ChargeChunk} {
			g, w := chebGrid(m, -1, 1)
			var pos [3][]float64
			q := make([]float64, np)
			for d := range pos {
				pos[d] = make([]float64, np)
				for p := range pos[d] {
					pos[d][p] = 0.99 * (2*rng.Float64() - 1)
				}
			}
			for p := range q {
				q[p] = signed(rng, 0, 4)
			}
			chunk := make([]float64, ChargeChunkLen(m))
			rows := func() uint64 {
				return chargeRowsZMM(&chunk[0], &g[0], &g[0], &g[0], &w[0], &pos[0][0], &pos[1][0], &pos[2][0], &q[0], m, np)
			}
			if slow := rows(); slow != 0 {
				t.Fatalf("m=%d np=%d: particles inside the box reported slow: %#x", m, np, slow)
			}
			var want uint64
			for p := 0; p < np; p += 3 {
				switch p % 9 {
				case 0:
					pos[0][p] = g[m-1]
				case 3:
					pos[2][p] = g[m/2]
				case 6:
					pos[1][p] = math.NaN()
				}
				want |= 1 << p
			}
			if slow := rows(); slow != want {
				t.Fatalf("m=%d np=%d: slow = %#x, want %#x", m, np, slow, want)
			}
			big, _ := chebGrid(m, -1e300, 1e300)
			for p := range pos[0] {
				pos[0][p] = 1e300 * (2*rng.Float64() - 1)
			}
			slow := chargeRowsZMM(&chunk[0], &big[0], &g[0], &g[0], &w[0], &pos[0][0], &pos[1][0], &pos[2][0], &q[0], m, np)
			if all := uint64(1)<<np - 1; slow != all {
				t.Fatalf("m=%d np=%d: past the 2^-900 guard, slow = %#x, want %#x", m, np, slow, all)
			}
		}
	}
}
