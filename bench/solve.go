package bench

import (
	"math"
	"math/rand"

	"barytree"
	"barytree/internal/core"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
)

var solveUniform = Workload{
	Name: "solve-uniform-50k",
	Why:  "The paper's Fig. 4 case: Plan.Solve on a uniform cube, where compute dominates, so kernel and driver work shows here.",
	run: func(o Options, r *Run) error {
		sp := solveSpec{
			n: 50_000, params: core.Params{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: 1000},
			kernel: kernel.Coulomb{}, setupReps: 41, geometry: uniformGeometry, charges: signedCharges,
		}
		if o.Quick {
			sp.n, sp.params.LeafSize, sp.params.BatchSize, sp.setupReps = 3000, 200, 200, 3
		}
		return runSolve(o, r, sp)
	},
}

var probeSparse = Workload{
	Name: "probe-sparse-200k",
	Why:  "A few far probes against many Plummer sources: the charge pass dominates and most modified charges are never read, so wasted precompute shows here.",
	run: func(o Options, r *Run) error {
		sp := solveSpec{
			n: 200_000, nt: 2000, params: core.Params{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: 100},
			kernel: kernel.Coulomb{}, setupReps: 41, geometry: probeGeometry, charges: positiveCharges,
		}
		if o.Quick {
			sp.n, sp.nt, sp.params.LeafSize, sp.params.BatchSize, sp.setupReps = 8000, 300, 200, 50, 3
		}
		return runSolve(o, r, sp)
	},
}

// solveSpec is one geometry solved repeatedly through a reused Plan with
// fresh charges per op.
type solveSpec struct {
	n, nt     int // sources; targets (0: the sources are the targets)
	params    core.Params
	kernel    kernel.Kernel
	setupReps int // NewPlan builds timed per run
	geometry  func(rng *rand.Rand, n, nt int) (targets, sources *particle.Set)
	charges   func(rng *rand.Rand, n int) []float64
}

// uniformGeometry is the paper's distribution: n points uniform in
// [-1,1]^3, serving as both targets and sources.
func uniformGeometry(rng *rand.Rand, n, _ int) (targets, sources *particle.Set) {
	s := particle.UniformCube(n, rng)
	return s, s
}

// probeGeometry draws nt probe targets uniform on the faces of the cube
// enclosing n Plummer sources. The sources are the same for every seed:
// the charge pass splits the tree's nodes statically between the workers,
// so its wall time follows the tree's shape, and a cluster drawn per seed
// moves op_s by about 15% between seeds at equal modeled work.
func probeGeometry(rng *rand.Rand, n, nt int) (targets, sources *particle.Set) {
	sources = particle.Plummer(n, 1, rngFor(0, "probe-sparse-200k/sources"))
	b := sources.Bounds()
	c := b.Center()
	sz := b.Size()
	h := math.Max(sz.X, math.Max(sz.Y, sz.Z)) / 2
	targets = particle.NewSet(nt)
	for i := 0; i < nt; i++ {
		p := [3]float64{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
		face := rng.Intn(6)
		p[face/2] = float64(2*(face%2) - 1)
		targets.Append(c.X+h*p[0], c.Y+h*p[1], c.Z+h*p[2], 0)
	}
	return targets, sources
}

// signedCharges are uniform on [-1,1], as in the paper.
func signedCharges(rng *rand.Rand, n int) []float64 {
	q := make([]float64, n)
	for i := range q {
		q[i] = 2*rng.Float64() - 1
	}
	return q
}

// positiveCharges are uniform on (0,1]: masses, whose far field does not
// cancel, so relative errors at far probes stay meaningful.
func positiveCharges(rng *rand.Rand, n int) []float64 {
	q := make([]float64, n)
	for i := range q {
		q[i] = 1 - rng.Float64()
	}
	return q
}

func runSolve(o Options, r *Run, sp solveSpec) error {
	targets, sources := sp.geometry(rngFor(o.Seed, r.Workload+"/geometry"), sp.n, sp.nt)
	qrng := rngFor(o.Seed, r.Workload+"/charges")
	ref := &reference{k: sp.kernel, targets: targets, sources: sources, rng: rngFor(o.Seed, r.Workload+"/sample")}
	r.Params = map[string]any{
		"sources": sources.Len(), "targets": targets.Len(), "kernel": sp.kernel.Name(),
		"theta": sp.params.Theta, "degree": sp.params.Degree, "leaf_size": sp.params.LeafSize,
		"batch_size": sp.params.BatchSize, "setup_reps": sp.setupReps, "sampled_targets": sampledTargets,
	}

	var pl *barytree.Plan
	setups := make([]float64, 0, sp.setupReps)
	for i := 0; i < sp.setupReps; i++ {
		sec, _, err := measure(func() (err error) {
			pl, err = barytree.NewPlan(targets, sources, sp.params)
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, sec)
	}
	solve := func(q []float64) (phi []float64, sec, mb float64, err error) {
		sec, mb, err = measure(func() (err error) {
			phi, err = pl.Solve(sp.kernel, q)
			return err
		})
		return phi, sec, mb, err
	}
	if _, _, _, err := solve(sp.charges(qrng, sp.n)); err != nil { // warm-up
		return err
	}
	if o.Trace {
		return traceSolve(o, r, sp, targets, sources, solve, qrng, ref)
	}

	s := series{}
	err := window(o.Seconds, 3, func(int) error {
		q := sp.charges(qrng, sp.n)
		phi, sec, mb, err := solve(q)
		if err != nil {
			return err
		}
		r.checked(ref.check(q, phi))
		s.add("op", sec)
		s.add("alloc", mb)
		return nil
	})
	if err != nil {
		return err
	}
	model, err := core.NewPlan(targets, sources, sp.params)
	if err != nil {
		return err
	}
	mt := core.ModelCPURun(model, sp.kernel, perfmodel.XeonX5650())
	r.metric("setup_s", Median(setups), len(setups))
	r.metric("op_s", s.median("op"), len(s["op"]))
	r.metric("alloc_mb_per_op", s.median("alloc"), len(s["alloc"]))
	r.metric("accuracy_digits", ref.digits(), len(s["op"]))
	r.detail("modeled_s", "modeled_s", mt[perfmodel.PhasePrecompute]+mt[perfmodel.PhaseCompute], 1)
	r.detail("modeled_setup_s", "modeled_s", mt[perfmodel.PhaseSetup], 1)
	tail(r, "op", s["op"])
	return nil
}

// traceSolve is runSolve's traced run: set-ups and solves split into their
// layers, each split solve checked byte-identical to the untraced solve of
// the same charges.
func traceSolve(o Options, r *Run, sp solveSpec, targets, sources *particle.Set,
	solve func([]float64) ([]float64, float64, float64, error), qrng *rand.Rand, ref *reference) error {

	rec := r.spans
	ls := series{}
	var pl *core.Plan
	for i := 0; i < sp.setupReps; i++ {
		root := rec.Begin("setup", -1, i, 0)
		pl = splitNewPlan(targets, sources, sp.params, rec, root, i, ls)
		ls.add("setup", rec.End(root))
	}
	op := sp.setupReps
	err := window(o.Seconds, 3, func(int) error {
		q := sp.charges(qrng, sp.n)
		want, sec, _, err := solve(q)
		if err != nil {
			return err
		}
		ls.add("untraced", sec)
		root := rec.Begin("op", -1, op, 0)
		got, err := splitSolve(pl, sp.kernel, q, rec, root, op, ls)
		if err != nil {
			return err
		}
		ls.add("op", rec.End(root))
		op++
		problem := ref.check(q, got)
		if problem == "" && !sameBits(got, want) {
			problem = "split solve differs from Plan.Solve"
		}
		r.checked(problem)
		return nil
	})
	if err != nil {
		return err
	}
	layerMetrics(r, ls, planCounts(pl))
	return nil
}
