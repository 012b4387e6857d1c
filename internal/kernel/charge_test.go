package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// chargeRowCase draws one particle's barycentric rows (each of length m)
// and intermediate charge for TestChargeUpdateBitIdentical.
type chargeRowCase struct {
	name string
	draw func(rng *rand.Rand, tx, ty, tz []float64) (qt float64)
}

// signed returns a random value of either sign with exponent e plus or
// minus spread.
func signed(rng *rand.Rand, e, spread int) float64 {
	v := math.Ldexp(1+rng.Float64(), e+rng.Intn(2*spread+1)-spread)
	if rng.Intn(2) == 0 {
		return -v
	}
	return v
}

var chargeRowCases = []chargeRowCase{
	{"barycentric", func(rng *rand.Rand, tx, ty, tz []float64) float64 {
		// w_k/(x - s_k) for a particle inside the box: either sign, from
		// tiny to large where x nears a point.
		for _, row := range [][]float64{tx, ty, tz} {
			for k := range row {
				row[k] = signed(rng, 0, 30)
			}
		}
		return signed(rng, 0, 30)
	}},
	{"kronecker", func(rng *rand.Rand, tx, ty, tz []float64) float64 {
		// A particle on a grid plane: one or more rows are a delta.
		for d, row := range [][]float64{tx, ty, tz} {
			if d == 0 || rng.Intn(2) == 0 {
				clear(row)
				row[rng.Intn(len(row))] = 1
				continue
			}
			for k := range row {
				row[k] = signed(rng, 0, 10)
			}
		}
		return signed(rng, 0, 10)
	}},
	{"guarded", func(rng *rand.Rand, tx, ty, tz []float64) float64 {
		// Beyond the 2^±900 guard each row is divided by its own sum and
		// q-tilde is the bare charge: Lagrange values of either sign.
		for _, row := range [][]float64{tx, ty, tz} {
			var d float64
			for k := range row {
				row[k] = signed(rng, 800, 100)
				d += row[k]
			}
			for k := range row {
				row[k] /= d
			}
		}
		return signed(rng, 0, 4)
	}},
	{"overflow", func(rng *rand.Rand, tx, ty, tz []float64) float64 {
		// Factors near 2^±540: products overflow to ±Inf or fall into the
		// subnormals, and sums of opposite infinities give NaN.
		e := 540
		if rng.Intn(2) == 0 {
			e = -540
		}
		for _, row := range [][]float64{tx, ty, tz} {
			for k := range row {
				row[k] = signed(rng, e, 3)
			}
		}
		return signed(rng, 0, 3)
	}},
	{"zero-or-negative-charge", func(rng *rand.Rand, tx, ty, tz []float64) float64 {
		for _, row := range [][]float64{tx, ty, tz} {
			for k := range row {
				row[k] = signed(rng, 0, 8)
			}
		}
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return -math.Abs(signed(rng, 0, 8))
	}},
}

// putParticle writes particle p's rows and intermediate charge into a
// chunk for rows of m points, in ChargeChunkLen's layout.
func putParticle(chunk []float64, m, p int, tx, ty, tz []float64, qt float64) {
	const c = ChargeChunk
	for k := 0; k < m; k++ {
		chunk[k*c+p] = tx[k]
		chunk[(m+k)*c+p] = ty[k]
		chunk[2*m*c+p*m+k] = tz[k]
	}
	chunk[3*m*c+p] = qt
}

// nanSentinel is a quiet NaN with a payload no arithmetic produces, so a
// kernel that reads it turns its outputs into a NaN of other bits, and
// one that writes it changes its bits.
var nanSentinel = math.Float64frombits(0x7ff80000deadbeef)

// fillSentinel sets every value of s to nanSentinel.
func fillSentinel(s []float64) {
	for i := range s {
		s[i] = nanSentinel
	}
}

// wantBits fails unless got and want are equal by Float64bits.
func wantBits(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("%s: value %d of %d is %v (%#x), want %v (%#x)",
				what, i, len(want), got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
		}
	}
}

// TestChargeUpdateBitIdentical pins the ZMM charge update to the Go loop
// by Float64bits for every row length m from 2 to 13, which crosses the
// 8-lane chunk and the 12-row register block, and every chunk fill from
// one particle to ChargeChunk: two chunks per case summed into the same
// points, starting from +0 as a cluster does and from arbitrary values.
// The points past qhat[m^3] and the chunk's slots past its last particle
// hold NaN sentinels the update must neither write nor read.
func TestChargeUpdateBitIdentical(t *testing.T) {
	if chargeUpdateAsm == nil {
		t.Skipf("no assembly charge update here (CPU features %q); it needs avx512vl", CPUFeatures())
	}
	rng := rand.New(rand.NewSource(25))
	const pad = 9
	special := 0 // infinite, NaN and subnormal sums of the overflow case
	for m := 2; m <= 13; m++ {
		np := m * m * m
		tx, ty, tz := make([]float64, m), make([]float64, m), make([]float64, m)
		chunk := make([]float64, ChargeChunkLen(m))
		for _, c := range chargeRowCases {
			for fill := 1; fill <= ChargeChunk; fill++ {
				for _, fromZero := range []bool{true, false} {
					want := make([]float64, np+pad)
					got := make([]float64, np+pad)
					for i := range want {
						switch {
						case i >= np:
							want[i] = nanSentinel
						case !fromZero:
							want[i] = signed(rng, 0, 20)
						}
					}
					copy(got, want)
					for range 2 {
						fillSentinel(chunk)
						for p := 0; p < fill; p++ {
							qt := c.draw(rng, tx, ty, tz)
							putParticle(chunk, m, p, tx, ty, tz, qt)
						}
						chargeUpdateGo(want[:np], chunk, m, fill)
						chargeUpdateAsm(got[:np], chunk, m, fill)
					}
					for _, v := range want[:np] {
						if c.name == "overflow" && (math.IsInf(v, 0) || math.IsNaN(v) || v != 0 && math.Abs(v) < 0x1p-1022) {
							special++
						}
					}
					wantBits(t, got, want, fmt.Sprintf("m=%d %s fill=%d fromZero=%v", m, c.name, fill, fromZero))
				}
			}
		}
	}
	if special == 0 {
		t.Fatal("the overflow case summed no infinite, NaN or subnormal value")
	}
	t.Logf("overflow case: %d infinite, NaN or subnormal sums", special)
}

// chebGrid returns the m Chebyshev points of the second kind on [a, b]
// and their barycentric weights, laid out as chebyshev.Points and
// chebyshev.Weights lay them out (descending, endpoints pinned).
func chebGrid(m int, a, b float64) (g, w []float64) {
	n := m - 1
	g, w = make([]float64, m), make([]float64, m)
	mid, half := (a+b)/2, (b-a)/2
	sign := 1.0
	for k := range g {
		g[k] = mid + half*math.Cos(math.Pi*float64(k)/float64(n))
		w[k] = sign
		sign = -sign
	}
	g[0], g[n] = b, a
	w[0] *= 0.5
	w[n] *= 0.5
	return g, w
}

// rowsCase draws the grids' per-axis half-widths and edits a chunk's
// particles for TestChargeRowsBitIdentical.
type rowsCase struct {
	name  string
	scale func(rng *rand.Rand, d int) float64
	edit  func(rng *rand.Rand, g [3][]float64, pos [3][]float64, q []float64)
}

var rowsCases = []rowsCase{
	{"inside", func(*rand.Rand, int) float64 { return 1 }, nil},
	{"on-grid", func(rng *rand.Rand, d int) float64 {
		if rng.Intn(6) == 0 {
			return 0 // a collapsed axis: every point and particle coincide
		}
		return 1
	}, func(rng *rand.Rand, g [3][]float64, pos [3][]float64, _ []float64) {
		// Some particles sit exactly on a grid plane, some on several.
		for p := range pos[0] {
			for d := range pos {
				if rng.Intn(3) == 0 {
					pos[d][p] = g[d][rng.Intn(len(g[d]))]
				}
			}
		}
	}},
	{"near-grid", func(*rand.Rand, int) float64 { return 0x1p100 },
		func(rng *rand.Rand, g [3][]float64, pos [3][]float64, _ []float64) {
			// One axis on [0, 1], whose last point is 0, and two of side
			// 2^101, so a particle's denominator product is near 2^-200.
			// A particle 2^-1023 from that point is within 2^-1022 of it
			// yet has a finite row near 2^1022 and a product near 2^822,
			// inside the guard's range: only the grid-point test sends it
			// to the Kronecker row.
			d := rng.Intn(3)
			gd, _ := chebGrid(len(g[d]), 0, 1)
			copy(g[d], gd)
			for p := range pos[d] {
				switch rng.Intn(3) {
				case 0:
					pos[d][p] = rng.Float64()
				case 1:
					pos[d][p] = 0x1p-1023
				default:
					pos[d][p] = -0x1p-1023
				}
			}
		}},
	{"guarded", func(rng *rand.Rand, d int) float64 {
		// 1e150 and 1e-150 push the denominator product past 2^±900;
		// 1e104 on every axis makes it subnormal.
		return [4]float64{1, 1e150, 1e-150, 1e104}[rng.Intn(4)]
	}, nil},
	{"charges-and-non-finite", func(*rand.Rand, int) float64 { return 1 },
		func(rng *rand.Rand, _ [3][]float64, pos [3][]float64, q []float64) {
			for p := range q {
				switch rng.Intn(8) {
				case 0:
					q[p] = 0
				case 1:
					q[p] = math.Copysign(0, -1)
				case 2:
					q[p] = -q[p]
				case 3:
					pos[rng.Intn(3)][p] = math.Inf(2*rng.Intn(2) - 1)
				case 4:
					pos[rng.Intn(3)][p] = math.NaN()
				}
			}
		}},
}

// TestChargeRowsBitIdentical pins the ZMM rows loop, with its Go path for
// the lanes it reports, to the Go loop by Float64bits for every row
// length m from 2 to 13 and every chunk fill from one particle to
// ChargeChunk: particles inside the box, particles exactly on grid
// planes (collapsed axes among them), particles a subnormal distance from
// a grid point whose rows stay finite, boxes whose denominator products
// pass the 2^±900 guard, and zero, negative and non-finite charges and
// coordinates. The chunk's slots past its last particle hold NaN
// sentinels the loop must not write.
func TestChargeRowsBitIdentical(t *testing.T) {
	if chargeRowsAsm == nil {
		t.Skipf("no assembly charge rows here (CPU features %q); it needs avx512vl", CPUFeatures())
	}
	rng := rand.New(rand.NewSource(26))
	for m := 2; m <= 13; m++ {
		want := make([]float64, ChargeChunkLen(m))
		got := make([]float64, ChargeChunkLen(m))
		for _, c := range rowsCases {
			for fill := 1; fill <= ChargeChunk; fill++ {
				var g, pos [3][]float64
				var w []float64
				for d := range g {
					s := c.scale(rng, d)
					lo := s * (2*rng.Float64() - 1)
					g[d], w = chebGrid(m, lo-s, lo+s)
					pos[d] = make([]float64, fill)
					for p := range pos[d] {
						pos[d][p] = lo + s*(2*rng.Float64()-1)
					}
				}
				q := make([]float64, fill)
				for p := range q {
					q[p] = signed(rng, 0, 8)
				}
				if c.edit != nil {
					c.edit(rng, g, pos, q)
				}
				fillSentinel(want)
				fillSentinel(got)
				chargeRowsGo(want, g[0], g[1], g[2], w, pos[0], pos[1], pos[2], q)
				chargeRowsAsm(got, g[0], g[1], g[2], w, pos[0], pos[1], pos[2], q)
				wantBits(t, got, want, fmt.Sprintf("m=%d %s fill=%d", m, c.name, fill))
			}
		}
	}
}

// transferCase draws a transfer's matrices and a child's weights for
// TestTransferUpBitIdentical.
type transferCase struct {
	name string
	draw func(rng *rand.Rand, m int, a [3][]float64, w []float64)
}

// basisRows fills the m×m matrix a with rows of Lagrange-like values:
// either sign, mostly O(1), the parent's basis at the child's points.
func basisRows(rng *rand.Rand, a []float64) {
	for i := range a {
		a[i] = signed(rng, -1, 3)
	}
}

var transferCases = []transferCase{
	{"basis", func(rng *rand.Rand, m int, a [3][]float64, w []float64) {
		for _, ad := range a {
			basisRows(rng, ad)
		}
		for i := range w {
			w[i] = signed(rng, 0, 10)
		}
	}},
	{"collapsed", func(rng *rand.Rand, m int, a [3][]float64, w []float64) {
		// A child axis of one point: every row of A_d is the parent's
		// basis at that point, and the child's charges sit at j = 0
		// alone along the axis.
		d := rng.Intn(3)
		for i, ad := range a {
			basisRows(rng, ad)
			if i == d {
				for j := 1; j < m; j++ {
					copy(ad[j*m:(j+1)*m], ad[:m])
				}
			}
		}
		for i := range w {
			j := [3]int{i / (m * m), i / m % m, i % m}[d]
			w[i] = 0
			if j == 0 {
				w[i] = signed(rng, 0, 10)
			}
		}
	}},
	{"large-weights", func(rng *rand.Rand, m int, a [3][]float64, w []float64) {
		// Weights near 2^±1010: the contractions overflow to ±Inf or
		// fall into the subnormals, and opposite infinities give NaN.
		for _, ad := range a {
			basisRows(rng, ad)
		}
		e := 1010
		if rng.Intn(2) == 0 {
			e = -1010
		}
		for i := range w {
			w[i] = signed(rng, e, 12)
		}
	}},
}

// TestTransferUpBitIdentical pins the ZMM upward transfer to the Go loop
// by Float64bits for every m from 2 to 13: three children pushed into
// one parent that starts from +0, as chargeFromChildren's does, or from
// arbitrary values. Every slice ends in NaN sentinels the transfer must
// neither write nor read.
func TestTransferUpBitIdentical(t *testing.T) {
	if transferUpAsm == nil {
		t.Skipf("no assembly transfer here (CPU features %q); it needs avx512vl", CPUFeatures())
	}
	rng := rand.New(rand.NewSource(27))
	const pad = 9
	padded := func(n int) []float64 {
		s := make([]float64, n+pad)
		fillSentinel(s[n:])
		return s
	}
	special := 0
	for m := 2; m <= 13; m++ {
		mm, np := m*m, m*m*m
		var a [3][]float64
		for d := range a {
			a[d] = padded(mm)
		}
		w := padded(np)
		t1g, t2g, t1a, t2a := padded(mm), padded(mm), padded(mm), padded(mm)
		for _, c := range transferCases {
			for _, fromZero := range []bool{true, false} {
				want, got := padded(np), padded(np)
				if !fromZero {
					for i := range want[:np] {
						want[i] = signed(rng, 0, 20)
					}
				}
				copy(got, want)
				for range 3 {
					c.draw(rng, m, [3][]float64{a[0][:mm], a[1][:mm], a[2][:mm]}, w[:np])
					transferUpGo(m, a[0][:mm], a[1][:mm], a[2][:mm], w[:np], want[:np], t1g[:mm], t2g[:mm])
					transferUpAsm(m, a[0][:mm], a[1][:mm], a[2][:mm], w[:np], got[:np], t1a[:mm], t2a[:mm])
				}
				what := fmt.Sprintf("m=%d %s fromZero=%v", m, c.name, fromZero)
				wantBits(t, got, want, what)
				for _, s := range [][]float64{a[0], a[1], a[2], w, t1a, t2a} {
					wantBits(t, s[len(s)-pad:], want[np:], what+" sentinels")
				}
				for _, v := range want[:np] {
					if c.name == "large-weights" && (math.IsInf(v, 0) || math.IsNaN(v) || v != 0 && math.Abs(v) < 0x1p-1022) {
						special++
					}
				}
			}
		}
	}
	if special == 0 {
		t.Fatal("the large-weights case summed no infinite, NaN or subnormal value")
	}
	t.Logf("large-weights case: %d infinite, NaN or subnormal sums", special)
}

// BenchmarkTransferUp pushes one child's modified charges to its parent
// with the Go loop and with the resolved loop, at degree 6 (m = 7, one
// ZMM chunk) and degree 8 (m = 9, two chunks), and reports ns per child
// push.
func BenchmarkTransferUp(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, m := range []int{7, 9} {
		mm := m * m
		var a [3][]float64
		for d := range a {
			a[d] = make([]float64, mm)
			basisRows(rng, a[d])
		}
		w := make([]float64, mm*m)
		for i := range w {
			w[i] = signed(rng, 0, 4)
		}
		parent, t1, t2 := make([]float64, mm*m), make([]float64, mm), make([]float64, mm)
		for _, c := range []struct {
			name string
			up   TransferUp
		}{{"go", transferUpGo}, {"resolved", ResolveTransferUp()}} {
			b.Run(fmt.Sprintf("n=%d/%s", m-1, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.up(m, a[0], a[1], a[2], w, parent, t1, t2)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/push")
			})
		}
	}
}

// BenchmarkChargeUpdate charges one cluster of 1000 particles inside its
// box chunk by chunk, as the charge pass does, at degree 6 (rows of 7
// points, one ZMM chunk) and degree 8 (9 points, two chunks). rows times
// ChargeRows alone and update ChargeUpdate alone, each the Go loop and
// the resolved loop, and each reports ns per particle.
func BenchmarkChargeUpdate(b *testing.B) {
	const particles = 1000
	rng := rand.New(rand.NewSource(6))
	var pos [3][]float64
	for d := range pos {
		pos[d] = make([]float64, particles)
		for p := range pos[d] {
			pos[d][p] = 2*rng.Float64() - 1
		}
	}
	q := make([]float64, particles)
	for p := range q {
		q[p] = signed(rng, 0, 4)
	}
	for _, m := range []int{7, 9} {
		g, w := chebGrid(m, -1, 1)
		chunks := make([][]float64, (particles+ChargeChunk-1)/ChargeChunk)
		for i := range chunks {
			lo, hi := i*ChargeChunk, min((i+1)*ChargeChunk, particles)
			chunks[i] = make([]float64, ChargeChunkLen(m))
			chargeRowsGo(chunks[i], g, g, g, w, pos[0][lo:hi], pos[1][lo:hi], pos[2][lo:hi], q[lo:hi])
		}
		qhat := make([]float64, m*m*m)
		perParticle := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*particles), "ns/particle")
		}
		for _, c := range []struct {
			name string
			rows ChargeRows
		}{{"go", chargeRowsGo}, {"resolved", ResolveChargeRows()}} {
			b.Run(fmt.Sprintf("m=%d/rows/%s", m, c.name), func(b *testing.B) {
				chunk := make([]float64, ChargeChunkLen(m))
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < particles; lo += ChargeChunk {
						hi := min(lo+ChargeChunk, particles)
						c.rows(chunk, g, g, g, w, pos[0][lo:hi], pos[1][lo:hi], pos[2][lo:hi], q[lo:hi])
					}
				}
				perParticle(b)
			})
		}
		for _, c := range []struct {
			name   string
			update ChargeUpdate
		}{{"go", chargeUpdateGo}, {"resolved", ResolveChargeUpdate()}} {
			b.Run(fmt.Sprintf("m=%d/update/%s", m, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(qhat)
					for j, chunk := range chunks {
						c.update(qhat, chunk, m, min(ChargeChunk, particles-j*ChargeChunk))
					}
				}
				perParticle(b)
			})
		}
	}
}
