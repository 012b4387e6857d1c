package serve

import (
	"math"
	"strings"
	"testing"
)

// TestHistBucketFloor: the underflow bucket catches zero, negative and
// at-floor samples.
func TestHistBucketFloor(t *testing.T) {
	for _, sec := range []float64{0, -1, -1e-9, histFloor, histFloor / 2} {
		if got := histBucket(sec); got != 0 {
			t.Errorf("histBucket(%g) = %d, want 0 (underflow bucket)", sec, got)
		}
	}
	if got := histBucket(histFloor * 1.0001); got != 1 {
		t.Errorf("histBucket(just above floor) = %d, want 1", got)
	}
}

// TestHistBucketEdges pins the log-bucket boundary semantics: a value
// just below bound i lands in bucket i, and the exact bound lands in
// bucket i or i+1 (the float log cannot promise which side of the integer
// 10*log10 falls on), never further away.
func TestHistBucketEdges(t *testing.T) {
	for i := 1; i < histBucketsTotal-1; i++ {
		bound := histBound(i)
		if got := histBucket(bound * (1 - 1e-9)); got != i {
			t.Errorf("histBucket(%g just below bound %d) = %d, want %d", bound, i, got, i)
		}
		got := histBucket(bound)
		if got != i && got != i+1 {
			t.Errorf("histBucket(exact bound %d = %g) = %d, want %d or %d", i, bound, got, i, i+1)
		}
	}
}

// TestHistBucketMonotonic: bucket index never decreases as latency grows.
func TestHistBucketMonotonic(t *testing.T) {
	prev := histBucket(0)
	for sec := 1e-7; sec < 1e3; sec *= 1.07 {
		b := histBucket(sec)
		if b < prev {
			t.Fatalf("histBucket not monotonic: histBucket(%g) = %d after %d", sec, b, prev)
		}
		if b < 0 || b >= histBucketsTotal {
			t.Fatalf("histBucket(%g) = %d out of range [0,%d)", sec, b, histBucketsTotal)
		}
		prev = b
	}
}

// TestHistBucketOverflow: everything at or beyond the 100s ceiling lands
// in the last bucket, however extreme.
func TestHistBucketOverflow(t *testing.T) {
	last := histBucketsTotal - 1
	for _, sec := range []float64{200, 1e3, 1e9, math.MaxFloat64} {
		if got := histBucket(sec); got != last {
			t.Errorf("histBucket(%g) = %d, want overflow bucket %d", sec, got, last)
		}
	}
	// The ceiling itself maps to the last in-range bucket or overflow,
	// depending on float rounding; both are within the clamp.
	ceil := histBound(histBucketsTotal - 2)
	if got := histBucket(ceil); got != last && got != last-1 {
		t.Errorf("histBucket(ceiling %g) = %d, want %d or %d", ceil, got, last-1, last)
	}
}

// TestObserveSolvePreservesCount: every observation lands in exactly one
// bucket.
func TestObserveSolvePreservesCount(t *testing.T) {
	var m Metrics
	secs := []float64{0, 1e-7, 1e-6, 3e-6, 1e-3, 0.5, 1, 42, 99, 101, 1e6}
	for _, s := range secs {
		m.ObserveSolve(s, false)
	}
	var total uint64
	for _, n := range m.latHist {
		total += n
	}
	if total != m.latCount || m.latCount != uint64(len(secs)) {
		t.Errorf("bucket sum %d, latCount %d, observations %d: must all agree", total, m.latCount, len(secs))
	}
}

// TestQuantileZeroLatency documents the floor clamp: a histogram holding
// only sub-floor samples reports histFloor (1µs), the smallest value the
// layout can resolve, not zero.
func TestQuantileZeroLatency(t *testing.T) {
	var m Metrics
	for i := 0; i < 10; i++ {
		m.ObserveSolve(0, false)
	}
	m.mu.Lock()
	got := m.quantileLocked(0.5)
	m.mu.Unlock()
	if got != histFloor {
		t.Errorf("p50 of all-zero latencies = %g, want histFloor %g (resolution floor)", got, histFloor)
	}
}

// TestQuantileOverflowBucket: in the unbounded last bucket the
// interpolation ceiling is the observed max, so q=1 returns it exactly.
func TestQuantileOverflowBucket(t *testing.T) {
	var m Metrics
	m.ObserveSolve(200, false)
	m.ObserveSolve(400, false)
	m.mu.Lock()
	p100 := m.quantileLocked(1)
	p50 := m.quantileLocked(0.5)
	m.mu.Unlock()
	if p100 != 400 {
		t.Errorf("q=1 over overflow bucket = %g, want latMax 400", p100)
	}
	// Interpolation inside the overflow bucket stays within (lo, latMax].
	lo := histBound(histBucketsTotal - 2)
	if p50 <= lo || p50 > 400 {
		t.Errorf("q=0.5 over overflow bucket = %g, want within (%g, 400]", p50, lo)
	}
}

// TestQuantileInterpolationBounds: estimates stay inside the winning
// bucket's geometric bounds.
func TestQuantileInterpolationBounds(t *testing.T) {
	var m Metrics
	for i := 0; i < 100; i++ {
		m.ObserveSolve(3e-3, false)
	}
	b := histBucket(3e-3)
	lo, hi := histBound(b-1), histBound(b)
	m.mu.Lock()
	got := m.quantileLocked(0.9)
	m.mu.Unlock()
	// hi is clamped to latMax = 3e-3 inside the estimator.
	if hi > 3e-3 {
		hi = 3e-3
	}
	if got < lo || got > hi {
		t.Errorf("p90 = %g outside its bucket bounds [%g, %g]", got, lo, hi)
	}
}

// TestWriteTextLatencyLines: the exposition includes the count/sum/max
// and quantile lines derived from the histogram.
func TestWriteTextLatencyLines(t *testing.T) {
	var m Metrics
	m.ObserveSolve(2e-3, true)
	m.ObserveSolve(8e-3, false)
	var sb strings.Builder
	m.WriteText(&sb, "extra_line 1")
	out := sb.String()
	for _, want := range []string{
		"bltcd_solve_latency_seconds_count 2",
		"bltcd_solve_latency_seconds_max 0.008",
		`bltcd_solve_latency_seconds{quantile="0.5"}`,
		`bltcd_solve_latency_seconds{quantile="0.99"}`,
		"bltcd_solve_plan_hits_total 1",
		"bltcd_solve_plan_misses_total 1",
		"extra_line 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}
