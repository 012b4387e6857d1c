package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"barytree/internal/direct"
	"barytree/internal/kernel"
	"barytree/internal/metrics"
	"barytree/internal/particle"
)

// relErrMax is the accuracy every op must reach: the relative L2 error
// against a direct sum at the op's sampled targets. θ <= 0.8 with n = 6
// gives about six digits pooled over a run, but one op's 200-target sample
// under signed charges has been seen at 1.2e-5, so the per-op check sits an
// order of magnitude above that: it catches broken output, while
// accuracy_digits tracks the accuracy itself.
const relErrMax = 1e-4

// sampledTargets is how many targets each op's error is measured at.
const sampledTargets = 200

// accuracy pools the squared errors at every op's sampled targets, so a
// run's accuracy rests on all of them rather than on one op's sample.
type accuracy struct{ num, den float64 }

// check compares phi (one value per target, in input order) with a direct
// sum over sources at the sampled targets, adds the squared errors to the
// pool, and returns a problem when this op's relative L2 error exceeds
// relErrMax.
func (a *accuracy) check(k kernel.Kernel, targets, sources *particle.Set, sample []int, phi []float64) string {
	ref := direct.SumAt(k, targets, sample, sources)
	var num, den float64
	for i, j := range sample {
		d := ref[i] - phi[j]
		num += d * d
		den += ref[i] * ref[i]
	}
	a.num += num
	a.den += den
	if e := math.Sqrt(num / den); !(e <= relErrMax) {
		return fmt.Sprintf("relative error %.3g exceeds %.0g", e, relErrMax)
	}
	return ""
}

// digits is the pooled accuracy in decimal digits: -log10 of the pooled
// relative L2 error, capped at 16, the resolution of float64.
func (a *accuracy) digits() float64 {
	return math.Min(-math.Log10(math.Sqrt(a.num/a.den)), 16)
}

// reference checks solves of one fixed geometry under varying charges,
// each at a fresh sample of targets.
type reference struct {
	k                kernel.Kernel
	targets, sources *particle.Set
	rng              *rand.Rand
	accuracy
}

// check measures phi, solved with source charges q.
func (ref *reference) check(q, phi []float64) string {
	src := &particle.Set{X: ref.sources.X, Y: ref.sources.Y, Z: ref.sources.Z, Q: q}
	return ref.accuracy.check(ref.k, ref.targets, src, metrics.SampleIndices(ref.targets.Len(), sampledTargets, ref.rng), phi)
}

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// measure runs f once and returns its wall time in seconds and the bytes it
// allocated (the TotalAlloc delta) in MB.
func measure(f func() error) (sec, mb float64, err error) {
	var before, after runtime.MemStats
	runtime.GC() // start from a collected heap, so earlier ops' garbage is not billed here
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = f()
	sec = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return sec, float64(after.TotalAlloc-before.TotalAlloc) / 1e6, err
}
