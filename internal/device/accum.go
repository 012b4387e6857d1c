package device

import (
	"math"
	"sync/atomic"
)

// AccumBuffer is a float64 accumulation buffer supporting lock-free atomic
// adds, mirroring the `#pragma acc atomic` updates the paper uses when
// several stream-concurrent kernels accumulate potentials for the same
// target particles.
type AccumBuffer struct {
	bits []atomic.Uint64
}

// NewAccumBuffer returns a zeroed buffer of length n.
func NewAccumBuffer(n int) *AccumBuffer {
	return &AccumBuffer{bits: make([]atomic.Uint64, n)}
}

// Len returns the buffer length.
func (a *AccumBuffer) Len() int { return len(a.bits) }

// Add atomically performs buf[i] += v via a compare-and-swap loop.
func (a *AccumBuffer) Add(i int, v float64) {
	for {
		old := a.bits[i].Load()
		val := math.Float64frombits(old) + v
		if a.bits[i].CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// Load returns the current value of buf[i].
func (a *AccumBuffer) Load(i int) float64 {
	return math.Float64frombits(a.bits[i].Load())
}

// Store sets buf[i] = v (not atomic with respect to concurrent Add; use
// only during initialization).
func (a *AccumBuffer) Store(i int, v float64) {
	a.bits[i].Store(math.Float64bits(v))
}

// Values copies the buffer into a new []float64.
func (a *AccumBuffer) Values() []float64 {
	out := make([]float64, len(a.bits))
	for i := range a.bits {
		out[i] = math.Float64frombits(a.bits[i].Load())
	}
	return out
}
