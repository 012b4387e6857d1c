// Package metrics provides the error norms of the paper's Section 4: the
// relative 2-norm error of treecode potentials against direct-summation
// references (equation (16)), including the sampled variant used for large
// systems, plus small summary-statistics helpers for the benchmark harness.
//
// Randomness contract: this package never draws from the global math/rand
// source (the detrand analyzer in cmd/bltcvet enforces it repo-wide).
// SampleIndices takes an explicit *rand.Rand threaded by the caller —
// conventionally rand.New(rand.NewSource(seed)) with a recorded seed, as
// the public barytree.SampleIndices wrapper does — so a sampled error
// measurement is reproduced exactly by re-running with the same seed.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// RelErr2 returns the relative 2-norm error
//
//	E = sqrt( sum_i (ref_i - approx_i)^2 / sum_i ref_i^2 ).
//
// It panics if the slices differ in length and returns 0 for empty input.
// A zero reference norm with a nonzero difference returns +Inf.
func RelErr2(ref, approx []float64) float64 {
	if len(ref) != len(approx) {
		panic(fmt.Sprintf("metrics: RelErr2 length mismatch %d vs %d", len(ref), len(approx)))
	}
	var num, den float64
	for i := range ref {
		d := ref[i] - approx[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// SampleIndices returns k distinct indices drawn uniformly from [0, n). If
// k >= n it returns all indices 0..n-1. The result is sorted ascending, so
// it does not leak the iteration order of the selection set.
//
// rng must be an explicitly seeded generator (rand.New(rand.NewSource(seed))):
// the sample is a pure function of n, k and the generator state, which is
// what makes the paper's sampled error tables reproducible from the
// recorded seed alone. Floyd's algorithm draws exactly k variates, so the
// generator advances by the same amount regardless of collisions.
func SampleIndices(n, k int, rng *rand.Rand) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Floyd's algorithm for a uniform k-subset.
	chosen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			chosen[j] = struct{}{}
		} else {
			chosen[t] = struct{}{}
		}
	}
	out := make([]int, 0, k)
	for i := range chosen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Gather returns v[idx[0]], v[idx[1]], ... as a new slice.
func Gather(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = v[j]
	}
	return out
}
