package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRelErr2Basic(t *testing.T) {
	ref := []float64{3, 4}
	if got := RelErr2(ref, ref); got != 0 {
		t.Errorf("identical slices err = %g", got)
	}
	approx := []float64{3, 4.5}
	// sqrt(0.25 / 25) = 0.1
	if got := RelErr2(ref, approx); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("err = %g, want 0.1", got)
	}
}

func TestRelErr2EdgeCases(t *testing.T) {
	if got := RelErr2(nil, nil); got != 0 {
		t.Errorf("empty err = %g", got)
	}
	if got := RelErr2([]float64{0, 0}, []float64{0, 0}); got != 0 {
		t.Errorf("all zero err = %g", got)
	}
	if got := RelErr2([]float64{0}, []float64{1}); !math.IsInf(got, 1) {
		t.Errorf("zero reference err = %g, want +Inf", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	RelErr2([]float64{1}, []float64{1, 2})
}

// TestRelErr2ScaleInvariant scales both vectors by a power of two, which
// scales every difference, square and sum exactly, so the error must not
// move by a single bit. A scale such as 1000 rounds each product, and
// where an approximation nearly cancels its reference the difference of
// the rounded products keeps that rounding at full relative size.
func TestRelErr2ScaleInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		ref := make([]float64, n)
		approx := make([]float64, n)
		for i := range ref {
			ref[i] = rng.NormFloat64() + 1
			approx[i] = ref[i] + 0.01*rng.NormFloat64()
		}
		e1 := RelErr2(ref, approx)
		scaled := make([]float64, n)
		scaledA := make([]float64, n)
		for i := range ref {
			scaled[i] = ref[i] * 1024
			scaledA[i] = approx[i] * 1024
		}
		return e1 == RelErr2(scaled, scaledA)
	}
	// One element whose approximation nearly cancels: a scale of 1000
	// moved its error by 2.2e-12 relative.
	if !f(-6595853591803116644) {
		t.Error("seed -6595853591803116644: error changed under scaling")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSampleIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := SampleIndices(1000, 50, rng)
	if len(s) != 50 {
		t.Fatalf("got %d samples", len(s))
	}
	seen := map[int]bool{}
	prev := -1
	for _, v := range s {
		if v < 0 || v >= 1000 {
			t.Fatalf("sample %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		if v <= prev {
			t.Fatalf("samples not sorted: %v", s)
		}
		seen[v] = true
		prev = v
	}
	// k >= n returns everything.
	all := SampleIndices(10, 20, rng)
	if len(all) != 10 {
		t.Fatalf("k>n returned %d", len(all))
	}
	for i, v := range all {
		if v != i {
			t.Fatalf("k>n sample %v", all)
		}
	}
}

func TestSampleIndicesUniform(t *testing.T) {
	// Rough uniformity check: over many draws, each index should appear
	// with frequency ~k/n.
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 20)
	for trial := 0; trial < 2000; trial++ {
		for _, v := range SampleIndices(20, 5, rng) {
			counts[v]++
		}
	}
	for i, c := range counts {
		// Expected 500 each; allow wide slack.
		if c < 350 || c > 650 {
			t.Errorf("index %d drawn %d times, expected ~500", i, c)
		}
	}
}

func TestGather(t *testing.T) {
	v := []float64{10, 20, 30, 40}
	got := Gather(v, []int{3, 0, 2})
	if len(got) != 3 || got[0] != 40 || got[1] != 10 || got[2] != 30 {
		t.Fatalf("gather = %v", got)
	}
}
