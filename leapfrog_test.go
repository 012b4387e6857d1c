package barytree_test

// Dynamic-simulation stepping: leapfrog integration on a reused Plan that
// follows the particles with Plan.Update instead of rebuilding the setup
// phase every timestep (ROADMAP item 1, docs/performance.md "Dynamic
// simulation").
//
// TestLeapfrogEnergyDrift is the correctness pin: a fixed-seed Plummer
// cluster integrated with kick-drift-kick leapfrog through the Update path
// must conserve total energy to a pinned tolerance — the standard N-body
// quality metric, sensitive to any force error the incremental plan
// maintenance might introduce.
//
// BenchmarkLeapfrogStep100k / BenchmarkLeapfrogStep100kRebuild track the
// per-step plan maintenance cost at 100k particles (steps/sec). Every
// benchmark op is the same fixed sequence of leapfrogBenchSteps drift
// steps from the same start, so the work of an op does not depend on b.N.
// The real wall time covers the position advance plus the geometry work
// (Update vs a from-scratch NewPlan) — the per-step host cost of the
// paper's GPU-resident treecode, where the force evaluation itself runs
// on the device (the CPU reference evaluation takes seconds per step at
// this scale and is pinned separately by the energy test). The modeled
// hybrid step time (host maintenance + device compute at TitanV rates)
// rides along as a custom metric.

import (
	"math"
	"math/rand"
	"testing"

	"barytree"
	"barytree/internal/core"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/trace"
)

func TestLeapfrogEnergyDrift(t *testing.T) {
	const (
		n     = 1500
		eps   = 0.05 // Plummer softening
		dt    = 0.004
		steps = 30
		// Pinned regression tolerance for the max relative energy drift:
		// leapfrog is symplectic, so with treecode forces at these
		// parameters the drift stays far under this bound (measured
		// ~7e-9); a force bug in the update path blows it immediately.
		maxDrift = 1e-6
	)
	stars := barytree.PlummerSphere(n, 1.0, 17)
	k := barytree.RegularizedCoulomb(eps)
	p := barytree.Params{Theta: 0.7, Degree: 5, LeafSize: 100, BatchSize: 100, Morton: true}

	pl, err := barytree.NewPlan(stars, stars, p)
	if err != nil {
		t.Fatal(err)
	}
	x := append([]float64(nil), stars.X...)
	y := append([]float64(nil), stars.Y...)
	z := append([]float64(nil), stars.Z...)
	vx := make([]float64, n)
	vy := make([]float64, n)
	vz := make([]float64, n)

	energy := func(f *barytree.FieldResult) float64 {
		var e float64
		for i := 0; i < n; i++ {
			m := stars.Q[i]
			e += 0.5 * m * (vx[i]*vx[i] + vy[i]*vy[i] + vz[i]*vz[i])
			e -= 0.5 * m * f.Phi[i] // gravity: U = -1/2 sum m_i phi_i
		}
		return e
	}

	f, err := pl.SolveWithField(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	e0 := energy(f)
	actions := map[barytree.UpdateAction]int{}
	var worst float64
	for s := 0; s < steps; s++ {
		for i := 0; i < n; i++ { // kick (half): a = +grad phi for phi = sum m/r
			vx[i] += 0.5 * dt * f.GX[i]
			vy[i] += 0.5 * dt * f.GY[i]
			vz[i] += 0.5 * dt * f.GZ[i]
		}
		for i := 0; i < n; i++ { // drift
			x[i] += dt * vx[i]
			y[i] += dt * vy[i]
			z[i] += dt * vz[i]
		}
		st, err := pl.Update(x, y, z)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		actions[st.Action]++
		if f, err = pl.SolveWithField(k, nil); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		for i := 0; i < n; i++ { // kick (half)
			vx[i] += 0.5 * dt * f.GX[i]
			vy[i] += 0.5 * dt * f.GY[i]
			vz[i] += 0.5 * dt * f.GZ[i]
		}
		if d := math.Abs((energy(f) - e0) / e0); d > worst {
			worst = d
		}
	}
	t.Logf("max |dE/E| over %d steps: %.3e (refit %d, repair %d, rebuild %d)",
		steps, worst, actions[barytree.UpdateRefit], actions[barytree.UpdateRepair], actions[barytree.UpdateRebuild])
	if worst > maxDrift {
		t.Fatalf("energy drift %.3e exceeds pinned %.0e", worst, maxDrift)
	}
	if worst == 0 {
		t.Fatal("energy drift exactly zero: the integrator never engaged")
	}
	if actions[barytree.UpdateRefit] == 0 {
		t.Fatalf("no step took the refit fast path: %v", actions)
	}
}

// leapfrogBenchSetup builds the 100k stepping scenario shared by the two
// benchmarks: a fixed-seed Plummer cluster and a deterministic velocity
// field at cluster-typical speeds (the virial velocity scale of a unit-mass
// Plummer sphere is ~0.4), advanced with a small timestep so per-step drift
// is the realistic fraction of a leaf that keeps all three update paths in
// play over a run.
func leapfrogBenchSetup(n int) (x, y, z, q, vx, vy, vz []float64) {
	stars := barytree.PlummerSphere(n, 1.0, 17)
	rng := rand.New(rand.NewSource(18))
	vx = make([]float64, n)
	vy = make([]float64, n)
	vz = make([]float64, n)
	for i := 0; i < n; i++ {
		vx[i] = 0.3 * rng.NormFloat64()
		vy[i] = 0.3 * rng.NormFloat64()
		vz[i] = 0.3 * rng.NormFloat64()
	}
	return stars.X, stars.Y, stars.Z, stars.Q, vx, vy, vz
}

const leapfrogBenchDT = 0.002

// leapfrogBenchSteps is the step sequence of one benchmark op.
const leapfrogBenchSteps = 10

func leapfrogParams() core.Params {
	return core.Params{Theta: 0.6, Degree: 6, LeafSize: 300, BatchSize: 300, Morton: true}
}

// benchLeapfrogSteps times b.N ops of the fixed step sequence: before each
// op, outside the timer, the positions are restored to the start and
// restart runs; each timed step advances the positions one leapfrog drift
// and calls step with them.
func benchLeapfrogSteps(b *testing.B, restart func(pts *particle.Set), step func(pts *particle.Set)) {
	const n = 100_000
	x0, y0, z0, q, vx, vy, vz := leapfrogBenchSetup(n)
	pts := &particle.Set{X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n), Q: q}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(pts.X, x0)
		copy(pts.Y, y0)
		copy(pts.Z, z0)
		restart(pts)
		b.StartTimer()
		for s := 0; s < leapfrogBenchSteps; s++ {
			for j := 0; j < n; j++ {
				pts.X[j] += leapfrogBenchDT * vx[j]
				pts.Y[j] += leapfrogBenchDT * vy[j]
				pts.Z[j] += leapfrogBenchDT * vz[j]
			}
			step(pts)
		}
	}
	b.StopTimer()
}

// reportLeapfrogMetrics emits the stepping metrics: real steps/sec of the
// maintained path, and the modeled hybrid step time with the device compute
// phase at TitanV rates (the same GradCost accounting as RunCPUFields).
func reportLeapfrogMetrics(b *testing.B, pl *core.Plan, maintModeled float64) {
	b.Helper()
	steps := float64(b.N * leapfrogBenchSteps)
	b.ReportMetric(steps/b.Elapsed().Seconds(), "steps/s")
	k := kernel.RegularizedCoulomb{Eps: 0.05}
	compute := float64(pl.Lists.Stats.TotalInteractions()) *
		(kernel.GradCost(k, kernel.ArchGPU) + 8) / perfmodel.TitanV().EffectiveFlopRate()
	b.ReportMetric((maintModeled/steps+compute)*1e3, "modeled-step-ms")
}

// BenchmarkLeapfrogStep100k steps a 100k-particle plan with Plan.Update:
// each step advances positions one leapfrog drift and follows with the
// cheapest exact structural path (refit / repair / rebuild). Each op
// starts from a plan freshly built at the start positions. Compare against
// BenchmarkLeapfrogStep100kRebuild, which pays the full setup phase every
// step of the same sequence; docs/performance.md records the ratio.
func BenchmarkLeapfrogStep100k(b *testing.B) {
	p := leapfrogParams()
	var pl *core.Plan
	tr := trace.New()
	actions := map[core.UpdateAction]int{}
	benchLeapfrogSteps(b, func(pts *particle.Set) {
		var err error
		if pl, err = core.NewPlan(pts, pts, p); err != nil {
			b.Fatal(err)
		}
	}, func(pts *particle.Set) {
		st, err := pl.Update(pts.X, pts.Y, pts.Z, tr)
		if err != nil {
			b.Fatal(err)
		}
		actions[st.Action]++
	})
	var maintModeled float64
	for _, s := range tr.Spans() {
		maintModeled += s.Dur()
	}
	reportLeapfrogMetrics(b, pl, maintModeled)
	steps := float64(b.N * leapfrogBenchSteps)
	b.ReportMetric(float64(actions[core.UpdateRefit])/steps, "refit/step")
	b.ReportMetric(float64(actions[core.UpdateRepair])/steps, "repair/step")
	b.ReportMetric(float64(actions[core.UpdateRebuild])/steps, "rebuild/step")
}

// BenchmarkLeapfrogStep100kRebuild is the baseline the update path is
// measured against: the same step sequence, but every step rebuilds the
// plan from scratch (the only option before Plan.Update existed).
func BenchmarkLeapfrogStep100kRebuild(b *testing.B) {
	p := leapfrogParams()
	var pl *core.Plan
	var maintModeled float64
	benchLeapfrogSteps(b, func(*particle.Set) {}, func(pts *particle.Set) {
		var err error
		if pl, err = core.NewPlan(pts, pts, p); err != nil {
			b.Fatal(err)
		}
		maintModeled += pl.SetupWork(perfmodel.XeonX5650())
	})
	reportLeapfrogMetrics(b, pl, maintModeled)
}
