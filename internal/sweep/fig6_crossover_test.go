package sweep

import (
	"testing"

	"barytree/internal/perfmodel"
)

// phasePoint builds one hand-made Fig. 6 measurement.
func phasePoint(kernel string, n, gpus int, setup, precompute, compute float64) Fig6Point {
	var t perfmodel.PhaseTimes
	t[perfmodel.PhaseSetup] = setup
	t[perfmodel.PhasePrecompute] = precompute
	t[perfmodel.PhaseCompute] = compute
	return Fig6Point{Kernel: kernel, N: n, GPUs: gpus, Times: t}
}

// TestSetupCrossover pins the crossover fig6 prints: the first GPU count,
// in Config.GPUs order, at which setup plus precompute reaches compute.
func TestSetupCrossover(t *testing.T) {
	// The coulomb N=100 series crosses at 4 GPUs, where setup plus
	// precompute (2+1) equals compute (3).
	crossesAt4 := []Fig6Point{
		phasePoint("coulomb", 100, 1, 1, 1, 10),
		phasePoint("coulomb", 100, 2, 1, 1, 5),
		phasePoint("coulomb", 100, 4, 2, 1, 3),
		phasePoint("coulomb", 100, 8, 3, 1, 1),
	}
	// Series that cross earlier than coulomb N=100's 8 GPUs below, but
	// belong to another kernel or another N.
	others := []Fig6Point{
		phasePoint("yukawa", 100, 1, 5, 5, 1),
		phasePoint("yukawa", 100, 2, 5, 5, 1),
		phasePoint("coulomb", 200, 1, 1, 0, 10),
		phasePoint("coulomb", 200, 2, 9, 1, 1),
	}
	crossesAt8 := []Fig6Point{
		phasePoint("coulomb", 100, 1, 1, 0, 10),
		phasePoint("coulomb", 100, 2, 1, 0, 10),
		phasePoint("coulomb", 100, 4, 1, 0, 10),
		phasePoint("coulomb", 100, 8, 4, 1, 1),
	}
	reversed := func(ps []Fig6Point) []Fig6Point {
		out := make([]Fig6Point, len(ps))
		for i, p := range ps {
			out[len(ps)-1-i] = p
		}
		return out
	}

	cases := []struct {
		name   string
		points []Fig6Point
		kernel string
		n      int
		want   int
	}{
		{"equality counts", crossesAt4, "coulomb", 100, 4},
		{"out of GPU order", reversed(crossesAt4), "coulomb", 100, 4},
		{"compute dominates throughout", []Fig6Point{
			phasePoint("coulomb", 100, 1, 1, 1, 10),
			phasePoint("coulomb", 100, 2, 2, 1, 9),
			phasePoint("coulomb", 100, 4, 3, 1, 8),
			phasePoint("coulomb", 100, 8, 4, 1, 7),
		}, "coulomb", 100, 0},
		{"just short of equality", []Fig6Point{
			phasePoint("coulomb", 100, 1, 1, 1, 10),
			phasePoint("coulomb", 100, 8, 2, 1, 3.5),
		}, "coulomb", 100, 0},
		{"first crossing, not the last", []Fig6Point{
			phasePoint("coulomb", 100, 1, 1, 1, 10),
			phasePoint("coulomb", 100, 2, 6, 0, 5),
			phasePoint("coulomb", 100, 4, 1, 1, 5),
			phasePoint("coulomb", 100, 8, 6, 0, 5),
		}, "coulomb", 100, 2},
		{"series read on its own", append(append([]Fig6Point{}, others...), crossesAt8...), "coulomb", 100, 8},
		{"other kernel", append(append([]Fig6Point{}, others...), crossesAt8...), "yukawa", 100, 1},
		{"other N", append(append([]Fig6Point{}, crossesAt8...), others...), "coulomb", 200, 2},
		{"no such series", crossesAt4, "yukawa", 100, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := &Fig6Result{Config: Fig6Config{GPUs: []int{1, 2, 4, 8}}, Points: c.points}
			if got := r.SetupCrossover(c.kernel, c.n); got != c.want {
				t.Errorf("SetupCrossover(%q, %d) = %d, want %d", c.kernel, c.n, got, c.want)
			}
		})
	}
}
