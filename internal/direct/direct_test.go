package direct

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"barytree/internal/kernel"
	"barytree/internal/particle"
)

func TestSumTwoParticles(t *testing.T) {
	s := particle.NewSet(2)
	s.Append(0, 0, 0, 2)
	s.Append(1, 0, 0, 3)
	phi := Sum(kernel.Coulomb{}, s, s)
	// phi[0] = q1/|x0-y1| = 3, phi[1] = q0/1 = 2 (self term excluded).
	if phi[0] != 3 || phi[1] != 2 {
		t.Fatalf("phi = %v", phi)
	}
}

func TestSumMatchesHandComputed(t *testing.T) {
	tg := particle.NewSet(1)
	tg.Append(0, 0, 0, 0)
	src := particle.NewSet(3)
	src.Append(1, 0, 0, 1)  // contributes 1
	src.Append(0, 2, 0, -4) // contributes -2
	src.Append(0, 0, 4, 8)  // contributes 2
	phi := Sum(kernel.Coulomb{}, tg, src)
	if math.Abs(phi[0]-1) > 1e-15 {
		t.Fatalf("phi = %v, want 1", phi[0])
	}
}

// TestParallelMatchesSerial checks that partitioning targets over workers
// does not change the potentials. With the pure-Go loops every kernel is
// bit-identical regardless of partition. With the assembly kernels
// installed, a worker boundary can move a target between the vectorized
// tile and the scalar tail, so a kernel with a measured-ULP tile contract
// (Yukawa) is only guaranteed within twice the contract's additive
// tolerance — each side may independently be off by maxULP ulps per term.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := particle.UniformCube(1500, rng)
	k := kernel.Yukawa{Kappa: 0.5}

	check := func(t *testing.T) {
		serial := Sum(k, pts, pts)
		maxULP := kernel.TileMaxULP(k)
		var tol []float64
		if maxULP != 0 {
			tol = make([]float64, pts.Len())
			for i := range tol {
				var absSum float64
				for j := 0; j < pts.Len(); j++ {
					absSum += math.Abs(k.Eval(pts.X[i], pts.Y[i], pts.Z[i], pts.X[j], pts.Y[j], pts.Z[j]) * pts.Q[j])
				}
				ulp := math.Nextafter(absSum, math.Inf(1)) - absSum
				tol[i] = 2 * float64(maxULP+1) * float64(pts.Len()) * ulp
			}
		}
		for _, workers := range []int{1, 2, 4, 7, 16, 0} {
			par := SumParallel(k, pts, pts, workers)
			for i := range serial {
				if maxULP == 0 {
					if par[i] != serial[i] {
						t.Fatalf("workers=%d: phi[%d] %g != %g", workers, i, par[i], serial[i])
					}
				} else if diff := math.Abs(par[i] - serial[i]); diff > tol[i] {
					t.Fatalf("workers=%d: phi[%d] %g vs %g, |diff| %g exceeds ULP-contract tolerance %g",
						workers, i, par[i], serial[i], diff, tol[i])
				}
			}
		}
	}

	t.Run("installed", check)
	t.Run("pure-go", func(t *testing.T) {
		prev := kernel.SetAsmKernels(false)
		defer kernel.SetAsmKernels(prev)
		check(t)
	})
}

func TestSumAtMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := particle.UniformCube(800, rng)
	k := kernel.Coulomb{}
	full := Sum(k, pts, pts)
	sample := []int{0, 17, 203, 799, 400}
	sampled := SumAt(k, pts, sample, pts)
	for i, idx := range sample {
		if sampled[i] != full[idx] {
			t.Fatalf("sampled[%d] = %g, full[%d] = %g", i, sampled[i], idx, full[idx])
		}
	}
}

// TestSumAtBadIndexPanics pins that a sample index outside the target
// range panics on the calling goroutine, before any worker starts, so the
// caller's recover sees it; the message names the index and the count.
func TestSumAtBadIndexPanics(t *testing.T) {
	pts := particle.UniformCube(100, rand.New(rand.NewSource(1)))
	for _, bad := range []int{100, -1} {
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			SumAt(kernel.Coulomb{}, pts, []int{0, 1, 2, bad}, pts)
			return ""
		}()
		want := fmt.Sprintf("sample index %d out of range [0,100)", bad)
		if !strings.Contains(msg, want) {
			t.Errorf("SumAt with index %d: recovered %q, want a panic containing %q", bad, msg, want)
		}
	}
}

func TestDisjointTargetsSources(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tg := particle.UniformCube(100, rng)
	src := particle.UniformCube(300, rng)
	phi := SumParallel(kernel.Coulomb{}, tg, src, 0)
	if len(phi) != 100 {
		t.Fatalf("got %d potentials", len(phi))
	}
	// Spot check one target.
	var want float64
	k := kernel.Coulomb{}
	for j := 0; j < src.Len(); j++ {
		want += k.Eval(tg.X[42], tg.Y[42], tg.Z[42], src.X[j], src.Y[j], src.Z[j]) * src.Q[j]
	}
	if phi[42] != want {
		t.Fatalf("phi[42] = %g, want %g", phi[42], want)
	}
}

func TestInteractions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tg := particle.UniformCube(10, rng)
	src := particle.UniformCube(20, rng)
	if got := Interactions(tg, src); got != 200 {
		t.Fatalf("Interactions = %d", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	empty := particle.NewSet(0)
	if got := Sum(kernel.Coulomb{}, empty, empty); len(got) != 0 {
		t.Fatalf("empty sum = %v", got)
	}
	rng := rand.New(rand.NewSource(5))
	tg := particle.UniformCube(5, rng)
	phi := SumParallel(kernel.Coulomb{}, tg, empty, 0)
	for _, v := range phi {
		if v != 0 {
			t.Fatalf("no sources but phi = %v", phi)
		}
	}
}
