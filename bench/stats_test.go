package bench

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1: input order must not matter
	}
	for _, tc := range []struct {
		q      float64
		v      float64
		beyond int
	}{{0.5, 50.5, 50}, {0.9, 90.1, 10}, {0.99, 99.01, 1}, {1, 100, 0}, {0, 1, 99}} {
		v, beyond := Percentile(xs, tc.q)
		if math.Abs(v-tc.v) > 1e-9 || beyond != tc.beyond {
			t.Errorf("Percentile(1..100, %g) = %g with %d beyond, want %g with %d", tc.q, v, beyond, tc.v, tc.beyond)
		}
	}
	if v, beyond := Percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("Percentile(nil) = %g, %d", v, beyond)
	}
	if v, beyond := Percentile([]float64{3, 3, 3}, 0.9); v != 3 || beyond != 0 {
		t.Errorf("ties: Percentile = %g with %d beyond, want 3 with 0", v, beyond)
	}
}

// TestQuartilesMatchPython pins Quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, which is how spreads are checked
// from outside the benchmark.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("Quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("Spread = %g, want 1", s)
	}
}

func TestPoissonArrivalsAreSeeded(t *testing.T) {
	a := PoissonArrivals(rand.New(rand.NewSource(7)), 50, 20000)
	b := PoissonArrivals(rand.New(rand.NewSource(7)), 50, 20000)
	c := PoissonArrivals(rand.New(rand.NewSource(8)), 50, 20000)
	if !sameBits(a, b) {
		t.Fatal("equal seeds gave different schedules")
	}
	if sameBits(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("arrival %d at %g is not after %g", i, a[i], a[i-1])
		}
	}
	if rate := float64(len(a)) / a[len(a)-1]; math.Abs(rate-50)/50 > 0.03 {
		t.Errorf("mean rate %g, want 50 within 3%%", rate)
	}
	// Another rate is the same draws rescaled: what phase B relies on.
	d := PoissonArrivals(rand.New(rand.NewSource(7)), 100, 20000)
	for i := range a {
		if math.Abs(d[i]-a[i]/2) > 1e-9*a[i] {
			t.Fatalf("arrival %d at rate 100 is %g, want %g", i, d[i], a[i]/2)
		}
	}
}

// queueLatencies runs a single server with a fixed service time over the
// unit-rate arrival draws rescaled to rate, and returns each request's
// time from arrival to completion.
func queueLatencies(unit []float64, rate, service float64) []float64 {
	lat := make([]float64, len(unit))
	free := 0.0
	for i, u := range unit {
		at := u / rate
		free = math.Max(at, free) + service
		lat[i] = free - at
	}
	return lat
}

// TestLogBisectFindsQueueCapacity checks phase B's search on a synthetic
// queue whose highest acceptable rate is found by a fine scan: six probes
// over the serving bracket land within 5% of it.
func TestLogBisectFindsQueueCapacity(t *testing.T) {
	unit := PoissonArrivals(rand.New(rand.NewSource(3)), 1, 2000)
	for _, capacity := range []float64{80, 150, 400} {
		ok := func(rate float64) bool { return latencyOK(queueLatencies(unit, rate, 1/capacity)) }
		known := 0.0
		for rate := 30.0; rate <= 480; rate *= 1.001 {
			if ok(rate) {
				known = rate
			}
		}
		got := LogBisect(30, 480, 6, ok)
		if known == 0 || math.Abs(got-known)/known > 0.05 {
			t.Errorf("capacity %g: bisection found %g, the scan %g", capacity, got, known)
		}
	}
	if got := LogBisect(30, 480, 6, func(float64) bool { return false }); got != 0 {
		t.Errorf("nothing accepted: got %g, want 0", got)
	}
}

// TestResidualOfRecordedLayers checks that an op's layers and its residual
// sum to the op's span, with the residual holding the unrecorded work.
func TestResidualOfRecordedLayers(t *testing.T) {
	if got := Residual(1, 0.25, 0.5); got != 0.25 {
		t.Errorf("Residual(1, 0.25, 0.5) = %g", got)
	}
	rec := NewRecorder()
	ls := series{}
	for op := 0; op < 3; op++ {
		root := rec.Begin("op", -1, op, 0)
		ls.add("a", rec.Time("a", root, op, 0, func() { time.Sleep(2 * time.Millisecond) }))
		time.Sleep(3 * time.Millisecond) // outside every layer
		ls.add("b", rec.Time("b", root, op, 0, func() { time.Sleep(time.Millisecond) }))
		ls.add("op", rec.End(root))
	}
	res := residuals(ls, "op", "a", "b")
	if res < 0.003 || res > 0.5 {
		t.Errorf("residual %g s, want at least the 3 ms spent outside the layers", res)
	}
	for i, total := range ls["op"] {
		if sum := ls["a"][i] + ls["b"][i] + Residual(total, ls["a"][i], ls["b"][i]); math.Abs(sum-total) > 1e-12 {
			t.Errorf("op %d: layers plus residual = %g, op = %g", i, sum, total)
		}
	}
	spans := rec.Spans()
	if len(spans) != 9 || spans[1].Parent != 0 || spans[0].Parent != -1 {
		t.Errorf("unexpected span tree: %+v", spans)
	}
}
