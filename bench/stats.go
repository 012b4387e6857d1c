package bench

import (
	"math"
	"math/rand"
	"sort"
)

// Percentile returns the q-quantile (0 <= q <= 1) of xs, interpolated
// linearly between the closest ranks, together with the number of samples
// strictly above it. A tail percentile is only worth reporting with at
// least ten samples beyond it, so callers print both. Empty input returns
// (0, 0).
func Percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	pos := math.Min(math.Max(q, 0), 1) * float64(len(s)-1)
	i := int(pos)
	v = s[i]
	if i+1 < len(s) {
		v += (pos - float64(i)) * (s[i+1] - s[i])
	}
	beyond = len(s) - sort.Search(len(s), func(j int) bool { return s[j] > v })
	return v, beyond
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 {
	v, _ := Percentile(xs, 0.5)
	return v
}

// Quartiles returns the three quartiles of xs by the "exclusive" method
// that Python's statistics.quantiles(xs, n=4) uses by default, so a spread
// printed here matches one recomputed from the recorded values. A single
// sample is its own quartiles; empty input returns zeros.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile distance of xs as a share of its median.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// PoissonArrivals returns the n arrival times, in seconds from zero, of a
// Poisson process with the given rate. Equal generator states give equal
// schedules, and the schedule for another rate is the same draws rescaled.
func PoissonArrivals(rng *rand.Rand, rate float64, n int) []float64 {
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = t
	}
	return out
}

// LogBisect searches [lo, hi] for the highest rate ok accepts, halving the
// bracket on a log scale once per probe. ok must be monotone (accepting a
// rate implies accepting every lower one). It returns the highest accepted
// probe, or 0 when every probe was rejected.
func LogBisect(lo, hi float64, probes int, ok func(rate float64) bool) float64 {
	best := 0.0
	for i := 0; i < probes; i++ {
		mid := math.Sqrt(lo * hi)
		if ok(mid) {
			best, lo = mid, mid
		} else {
			hi = mid
		}
	}
	return best
}

// Residual is what a total leaves unexplained by its layers: the op time
// minus the sum of the layer times measured inside it.
func Residual(total float64, layers ...float64) float64 {
	for _, l := range layers {
		total -= l
	}
	return total
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
