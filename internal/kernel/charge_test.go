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

// TestChargeUpdateBitIdentical pins the ZMM charge update to the Go loop
// by Float64bits for every row length m from 2 to 13, which crosses the
// 8-lane chunk: a few particles per case summed into the same points,
// starting from +0 as a cluster does and from arbitrary values. The
// points past qhat[m^3] and the row entries past m carry sentinels the
// update must neither write nor read.
func TestChargeUpdateBitIdentical(t *testing.T) {
	if chargeUpdateAsm == nil {
		t.Skipf("no assembly charge update here (CPU features %q); it needs avx512vl", CPUFeatures())
	}
	rng := rand.New(rand.NewSource(25))
	const pad = 9
	special := 0 // infinite, NaN and subnormal sums of the overflow case
	for m := 2; m <= 13; m++ {
		np := m * m * m
		for _, c := range chargeRowCases {
			for _, fromZero := range []bool{true, false} {
				want := make([]float64, np+pad)
				got := make([]float64, np+pad)
				for i := range want {
					if !fromZero || i >= np {
						want[i] = signed(rng, 0, 20)
					}
				}
				copy(got, want)
				rows := make([]float64, 3*(m+pad))
				tx, ty, tz := rows[:m], rows[m+pad:2*m+pad], rows[2*(m+pad):3*m+2*pad]
				for p := 0; p < 6; p++ {
					for i := range rows {
						rows[i] = math.NaN()
					}
					qt := c.draw(rng, tx, ty, tz)
					chargeUpdateGo(want[:np], tx, ty, tz, qt)
					chargeUpdateAsm(got[:np], tx, ty, tz, qt)
				}
				for i, v := range want {
					if c.name == "overflow" && i < np && (math.IsInf(v, 0) || math.IsNaN(v) || v != 0 && math.Abs(v) < 0x1p-1022) {
						special++
					}
					if math.Float64bits(got[i]) != math.Float64bits(v) {
						t.Fatalf("m=%d %s fromZero=%v: point %d of %d is %v (%#x), want %v (%#x)",
							m, c.name, fromZero, i, np, got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
					}
				}
			}
		}
	}
	if special == 0 {
		t.Fatal("the overflow case summed no infinite, NaN or subnormal value")
	}
	t.Logf("overflow case: %d infinite, NaN or subnormal sums", special)
}

// BenchmarkChargeUpdate adds 1000 particles' terms to one cluster's
// modified charges with the Go loop and with the resolved loop, at
// degree 6 (rows of 7 points, one ZMM chunk) and degree 8 (9 points, two
// chunks), and reports ns per particle.
func BenchmarkChargeUpdate(b *testing.B) {
	const particles = 1000
	rng := rand.New(rand.NewSource(6))
	for _, m := range []int{7, 9} {
		rows := make([]float64, particles*3*m)
		for i := range rows {
			rows[i] = signed(rng, 0, 4)
		}
		qhat := make([]float64, m*m*m)
		for _, c := range []struct {
			name   string
			update ChargeUpdate
		}{{"go", chargeUpdateGo}, {"resolved", ResolveChargeUpdate()}} {
			b.Run(fmt.Sprintf("m=%d/%s", m, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(qhat)
					for p := 0; p < particles; p++ {
						r := rows[p*3*m : (p+1)*3*m]
						c.update(qhat, r[:m], r[m:2*m], r[2*m:], 0.5)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*particles), "ns/particle")
			})
		}
	}
}
