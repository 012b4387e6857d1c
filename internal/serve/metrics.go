package serve

import (
	"fmt"
	"io"
	"math"
	"sync"
)

// latency histogram layout: logarithmic buckets from 1µs to 100s, ten per
// decade (ratio 10^0.1 ≈ 1.26), plus an underflow and an overflow bucket.
// Quantiles are estimated by log-linear interpolation inside the bucket,
// which is accurate to ~±13% — plenty for p50/p99 serving dashboards;
// bltcbench's serve-open-2k workload times every request exactly.
const (
	histDecades      = 8                             // 1e-6 .. 1e2 seconds
	histPerDecade    = 10                            //
	histFloor        = 1e-6                          // seconds
	histBucketsTotal = histDecades*histPerDecade + 2 // + under/overflow
)

// histBound returns the upper bound of bucket i (i in [0, total-2); the
// last bucket is unbounded).
func histBound(i int) float64 {
	return histFloor * math.Pow(10, float64(i)/histPerDecade)
}

// histBucket maps a latency in seconds to its bucket index.
func histBucket(sec float64) int {
	if sec <= histFloor {
		return 0
	}
	i := 1 + int(math.Floor(histPerDecade*math.Log10(sec/histFloor)))
	// sec > histFloor makes the true index >= 1; anything else means the
	// division overflowed to +Inf (or sec was NaN) and int() produced
	// garbage — those belong in the overflow bucket with the rest of the
	// absurd latencies.
	if i >= histBucketsTotal || i < 1 {
		return histBucketsTotal - 1
	}
	return i
}

// Metrics aggregates the serving counters exposed on /metrics. All methods
// are safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	solves      uint64 // completed solve requests (any status)
	solveOK     uint64
	clientErr   uint64 // 4xx other than rejection
	rejected    uint64 // 429 backpressure rejections
	cacheHits   uint64 // solve-path plan reuse
	cacheMisses uint64 // solve-path plan builds

	latCount uint64
	latSum   float64
	latMax   float64
	latHist  [histBucketsTotal]uint64
}

// ObserveSolve records one completed solve: wall latency and whether its
// plan came from cache.
func (m *Metrics) ObserveSolve(sec float64, cacheHit bool) {
	m.mu.Lock()
	m.solves++
	m.solveOK++
	if cacheHit {
		m.cacheHits++
	} else {
		m.cacheMisses++
	}
	m.latCount++
	m.latSum += sec
	if sec > m.latMax {
		m.latMax = sec
	}
	m.latHist[histBucket(sec)]++
	m.mu.Unlock()
}

// ObserveError records one solve request answered with a 4xx other than
// a rejection.
func (m *Metrics) ObserveError() {
	m.mu.Lock()
	m.solves++
	m.clientErr++
	m.mu.Unlock()
}

// ObserveRejected records one 429 backpressure rejection.
func (m *Metrics) ObserveRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// quantileLocked estimates the q-quantile (q in [0,1]) of the latency
// histogram by rank-walking the buckets and interpolating geometrically
// inside the winning bucket. Returns 0 with no observations.
func (m *Metrics) quantileLocked(q float64) float64 {
	if m.latCount == 0 {
		return 0
	}
	rank := q * float64(m.latCount)
	var cum float64
	for i, n := range m.latHist {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			frac := (rank - cum) / float64(n)
			lo, hi := histFloor, m.latMax
			if i > 0 {
				lo = histBound(i - 1)
			}
			if i < histBucketsTotal-1 {
				hi = histBound(i)
			}
			if hi > m.latMax {
				hi = m.latMax
			}
			if hi <= lo {
				return lo
			}
			return lo * math.Pow(hi/lo, frac)
		}
		cum = next
	}
	return m.latMax
}

// WriteText renders the metrics in a flat `name value` exposition format
// (one metric per line, sorted stable order — Prometheus-scrapable as
// untyped metrics). extra appends pre-formatted lines (cache and tracer
// counters composed by the server).
func (m *Metrics) WriteText(w io.Writer, extra ...string) {
	m.mu.Lock()
	lines := []string{
		fmt.Sprintf("bltcd_solve_requests_total %d", m.solves),
		fmt.Sprintf("bltcd_solve_ok_total %d", m.solveOK),
		fmt.Sprintf("bltcd_solve_client_errors_total %d", m.clientErr),
		fmt.Sprintf("bltcd_rejected_total %d", m.rejected),
		fmt.Sprintf("bltcd_solve_plan_hits_total %d", m.cacheHits),
		fmt.Sprintf("bltcd_solve_plan_misses_total %d", m.cacheMisses),
		// Both count solves served; they stay because bltcbench's
		// serve-open-2k divides them (its coalesce_mean_group).
		fmt.Sprintf("bltcd_coalesce_groups_total %d", m.solveOK),
		fmt.Sprintf("bltcd_coalesce_jobs_total %d", m.solveOK),
		fmt.Sprintf("bltcd_solve_latency_seconds_count %d", m.latCount),
		fmt.Sprintf("bltcd_solve_latency_seconds_sum %g", m.latSum),
		fmt.Sprintf("bltcd_solve_latency_seconds_max %g", m.latMax),
		fmt.Sprintf("bltcd_solve_latency_seconds{quantile=\"0.5\"} %g", m.quantileLocked(0.5)),
		fmt.Sprintf("bltcd_solve_latency_seconds{quantile=\"0.9\"} %g", m.quantileLocked(0.9)),
		fmt.Sprintf("bltcd_solve_latency_seconds{quantile=\"0.99\"} %g", m.quantileLocked(0.99)),
	}
	m.mu.Unlock()
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	for _, l := range extra {
		fmt.Fprintln(w, l)
	}
}
