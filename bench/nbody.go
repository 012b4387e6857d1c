package bench

import (
	"fmt"
	"math"
	"math/rand"

	"barytree"
	"barytree/internal/core"
	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/metrics"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/tree"
)

var nbodyPlummer = Workload{
	Name: "nbody-plummer-10k",
	Why:  "Leapfrog steps on a Morton plan: Plan.Update writes the plan the field solve then reads, so work moved into plan build or update shows here.",
	run:  runNbody,
}

// nbodySpec is a Plummer cluster integrated with kick-drift-kick leapfrog.
// Each trajectory restarts from the same initial state on a freshly built
// plan and runs steps steps, so every trajectory does identical work and
// must take identical update actions.
type nbodySpec struct {
	n         int
	params    core.Params
	eps       float64 // Plummer softening of the kernel
	sigma     float64 // initial velocity dispersion per component
	dt        float64
	steps     int // steps per trajectory
	setupReps int
}

// updateNames name the update actions, indexed by core.UpdateAction.
var updateNames = []string{"update_refit", "update_repair", "update_rebuild"}

// energyDriftMax bounds the relative energy drift over a trajectory: the
// integrator is symplectic, so only force errors make energy drift, and at
// these parameters they stay far below it.
const energyDriftMax = 1e-6

// leapfrog is one trajectory's state: positions, velocities, masses and the
// current field.
type leapfrog struct {
	x, y, z, vx, vy, vz, m []float64
	f                      *barytree.FieldResult
	e0                     float64
}

func newLeapfrog(stars *particle.Set, vx, vy, vz []float64, f *barytree.FieldResult) *leapfrog {
	lf := &leapfrog{
		x: clone(stars.X), y: clone(stars.Y), z: clone(stars.Z),
		vx: clone(vx), vy: clone(vy), vz: clone(vz), m: stars.Q, f: f,
	}
	lf.e0 = lf.energy()
	return lf
}

// kick advances velocities by half a step with the current field.
func (lf *leapfrog) kick(dt float64) {
	for i := range lf.vx {
		lf.vx[i] += 0.5 * dt * lf.f.GX[i]
		lf.vy[i] += 0.5 * dt * lf.f.GY[i]
		lf.vz[i] += 0.5 * dt * lf.f.GZ[i]
	}
}

// drift advances positions by a full step.
func (lf *leapfrog) drift(dt float64) {
	for i := range lf.x {
		lf.x[i] += dt * lf.vx[i]
		lf.y[i] += dt * lf.vy[i]
		lf.z[i] += dt * lf.vz[i]
	}
}

// energy is kinetic plus potential energy, U = -1/2 sum m_i phi_i.
func (lf *leapfrog) energy() float64 {
	var e float64
	for i, m := range lf.m {
		e += 0.5*m*(lf.vx[i]*lf.vx[i]+lf.vy[i]*lf.vy[i]+lf.vz[i]*lf.vz[i]) - 0.5*m*lf.f.Phi[i]
	}
	return e
}

func (lf *leapfrog) drift0() float64 { return math.Abs((lf.energy() - lf.e0) / lf.e0) }

func (lf *leapfrog) set() *particle.Set { return &particle.Set{X: lf.x, Y: lf.y, Z: lf.z, Q: lf.m} }

func runNbody(o Options, r *Run) error {
	sp := nbodySpec{
		n: 10_000, params: core.Params{Theta: 0.6, Degree: 6, LeafSize: 300, BatchSize: 300, Morton: true},
		eps: 0.05, sigma: 0.3, dt: 0.005, steps: 10, setupReps: 41,
	}
	if o.Quick {
		sp.n, sp.params.LeafSize, sp.params.BatchSize, sp.steps, sp.setupReps = 3000, 300, 100, 3, 2
	}
	k := kernel.RegularizedCoulomb{Eps: sp.eps}
	stars := particle.Plummer(sp.n, 1, rngFor(o.Seed, r.Workload+"/geometry"))
	vrng := rngFor(o.Seed, r.Workload+"/velocities")
	vx, vy, vz := make([]float64, sp.n), make([]float64, sp.n), make([]float64, sp.n)
	for i := range vx {
		vx[i], vy[i], vz[i] = sp.sigma*vrng.NormFloat64(), sp.sigma*vrng.NormFloat64(), sp.sigma*vrng.NormFloat64()
	}
	srng := rngFor(o.Seed, r.Workload+"/sample")
	var acc accuracy
	r.Params = map[string]any{
		"particles": sp.n, "kernel": k.Name(), "theta": sp.params.Theta, "degree": sp.params.Degree,
		"leaf_size": sp.params.LeafSize, "batch_size": sp.params.BatchSize, "dt": sp.dt,
		"velocity_sigma": sp.sigma, "steps_per_trajectory": sp.steps, "setup_reps": sp.setupReps,
	}

	// Warm-up: one untimed step on a plan then discarded.
	pl, err := barytree.NewPlan(stars, stars, sp.params)
	if err != nil {
		return err
	}
	f, err := pl.SolveWithField(k, nil)
	if err != nil {
		return err
	}
	lf := newLeapfrog(stars, vx, vy, vz, f)
	if _, err := stepPublic(pl, k, lf, sp.dt); err != nil {
		return err
	}
	if o.Trace {
		return traceNbody(o, r, sp, k, stars, vx, vy, vz, srng)
	}

	ls := series{}
	build := func() error {
		sec, _, err := measure(func() (err error) {
			pl, err = barytree.NewPlan(stars, stars, sp.params)
			return err
		})
		ls.add("setup", sec)
		return err
	}
	for i := 0; i < sp.setupReps; i++ {
		if err := build(); err != nil {
			return err
		}
	}
	tr := barytree.NewTracer()
	var first, cur []core.UpdateAction
	var drift float64
	err = window(o.Seconds, sp.steps, func(i int) error {
		if i%sp.steps == 0 {
			if err := build(); err != nil {
				return err
			}
			pl.SetTracer(tr)
			f, err := pl.SolveWithField(k, nil)
			if err != nil {
				return err
			}
			lf = newLeapfrog(stars, vx, vy, vz, f)
			cur = nil
		}
		var act core.UpdateAction
		sec, mb, err := measure(func() (err error) {
			act, err = stepPublic(pl, k, lf, sp.dt)
			return err
		})
		if err != nil {
			return err
		}
		ls.add("op", sec)
		ls.add("alloc", mb)
		cur = append(cur, act)
		if i == sp.steps-1 {
			first = cur
		}
		problem := acc.check(k, lf.set(), lf.set(), metrics.SampleIndices(sp.n, sampledTargets, srng), lf.f.Phi)
		d := lf.drift0()
		drift = math.Max(drift, d)
		switch {
		case problem != "":
		case d > energyDriftMax:
			problem = fmt.Sprintf("energy drift %.3g exceeds %.0g", d, energyDriftMax)
		case first != nil && cur[len(cur)-1] != first[len(cur)-1]:
			problem = fmt.Sprintf("step %d took %v, the first trajectory took %v", len(cur)-1, cur[len(cur)-1], first[len(cur)-1])
		}
		r.checked(problem)
		return nil
	})
	if err != nil {
		return err
	}

	// Modeled: the field solve on the initial plan, plus the mean modeled
	// cost of the updates the steps took.
	model, err := core.NewPlan(stars, stars, sp.params)
	if err != nil {
		return err
	}
	mt := core.RunCPUFields(model, k, core.CPUOptions{}).Times
	var updates float64
	for _, s := range tr.Spans() {
		updates += s.Dur()
	}
	steps := len(ls["op"])
	r.metric("setup_s", ls.median("setup"), len(ls["setup"]))
	r.metric("op_s", ls.median("op"), len(ls["op"]))
	r.metric("alloc_mb_per_op", ls.median("alloc"), len(ls["alloc"]))
	r.metric("accuracy_digits", acc.digits(), len(ls["op"]))
	r.detail("modeled_s", "modeled_s", mt[perfmodel.PhasePrecompute]+mt[perfmodel.PhaseCompute]+updates/float64(steps), steps)
	r.detail("modeled_setup_s", "modeled_s", mt[perfmodel.PhaseSetup], 1)
	r.detail("energy_drift", "ratio", drift, len(ls["op"]))
	for a, name := range updateNames {
		n := 0
		for _, x := range first {
			if x == core.UpdateAction(a) {
				n++
			}
		}
		r.detail(name+"s", "count", float64(n), len(first))
	}
	tail(r, "op", ls["op"])
	return nil
}

// stepPublic advances lf one kick-drift-kick step through the public plan
// API and returns the update action taken.
func stepPublic(pl *barytree.Plan, k kernel.GradKernel, lf *leapfrog, dt float64) (core.UpdateAction, error) {
	lf.kick(dt)
	lf.drift(dt)
	st, err := pl.Update(lf.x, lf.y, lf.z)
	if err != nil {
		return 0, err
	}
	if lf.f, err = pl.SolveWithField(k, nil); err != nil {
		return 0, err
	}
	lf.kick(dt)
	return st.Action, nil
}

// traceNbody is runNbody's traced run. The set-ups are split Morton
// builds, checked by solving on one. The steps run twice in lockstep:
// through the public API (untraced) and as update plus split field solve
// on a core plan (traced), whose fields must be byte-identical to the
// public step's.
func traceNbody(o Options, r *Run, sp nbodySpec, k kernel.GradKernel, stars *particle.Set,
	vx, vy, vz []float64, srng *rand.Rand) error {

	rec := r.spans
	ls := series{}
	var split *core.Plan
	for i := 0; i < sp.setupReps; i++ {
		root := rec.Begin("setup", -1, i, 0)
		split = splitMortonPlan(stars, sp.params, rec, root, i, ls)
		ls.add("setup", rec.End(root))
	}
	var (
		pl  *barytree.Plan
		cpl *core.Plan
		lf  *leapfrog
	)
	op := sp.setupReps
	err := window(o.Seconds, sp.steps, func(i int) error {
		if i%sp.steps == 0 {
			var err error
			if pl, err = barytree.NewPlan(stars, stars, sp.params); err != nil {
				return err
			}
			if cpl, err = core.NewPlan(stars, stars, sp.params); err != nil {
				return err
			}
			f, err := pl.SolveWithField(k, nil)
			if err != nil {
				return err
			}
			if i == 0 {
				problem := ""
				if !sameField(splitFields(split, k, rec, -1, op, series{}), f) {
					problem = "split Morton build solves differently from NewPlan's"
				}
				r.checked(problem)
			}
			lf = newLeapfrog(stars, vx, vy, vz, f)
		}
		lf.kick(sp.dt)
		lf.drift(sp.dt)
		sec, _, err := measure(func() error {
			if _, err := pl.Update(lf.x, lf.y, lf.z); err != nil {
				return err
			}
			var err error
			lf.f, err = pl.SolveWithField(k, nil)
			return err
		})
		if err != nil {
			return err
		}
		ls.add("untraced", sec)
		root := rec.Begin("op", -1, op, 0)
		var st core.UpdateStats
		dur := rec.Time("update", root, op, 0, func() { st, err = cpl.Update(lf.x, lf.y, lf.z, nil) })
		if err != nil {
			return err
		}
		ls.add(updateNames[st.Action]+"_s", dur)
		got := splitFields(cpl, k, rec, root, op, ls)
		ls.add("op", rec.End(root))
		op++
		lf.kick(sp.dt)
		var acc accuracy
		problem := acc.check(k, lf.set(), lf.set(), metrics.SampleIndices(sp.n, sampledTargets, srng), got.Phi)
		if problem == "" && !sameField(got, lf.f) {
			problem = "split step differs from Plan.Update + Plan.SolveWithField"
		}
		r.checked(problem)
		return nil
	})
	if err != nil {
		return err
	}
	layerMetrics(r, ls, planCounts(split))
	for _, name := range updateNames {
		if xs := ls[name+"_s"]; len(xs) > 0 {
			r.detail(name+"_s", "s", Median(xs), len(xs))
		}
	}
	return nil
}

// splitMortonPlan is core.NewPlan's Morton build as one call per layer. The
// result solves like the real plan but cannot Update: the update state is
// internal to core.
func splitMortonPlan(pts *particle.Set, p core.Params, rec *Recorder, parent, op int, ls series) *core.Plan {
	var (
		t   *tree.Tree
		b   *tree.BatchSet
		res *core.Plan
	)
	ls.timed(rec, "tree", parent, op, func() { t, _ = tree.BuildMortonWorkers(pts, p.LeafSize, p.Workers) })
	ls.timed(rec, "batches", parent, op, func() {
		tt, _ := tree.BuildMortonWorkers(pts, p.BatchSize, p.Workers)
		b = tree.BatchSetFromTree(tt)
	})
	res = &core.Plan{Params: p, Sources: t, Batches: b}
	ls.timed(rec, "lists", parent, op, func() { res.Lists = interaction.BuildListsWorkers(b, t, p.MAC(), p.Workers) })
	ls.timed(rec, "grids", parent, op, func() { res.Clusters = core.NewClusterDataWorkers(t, p.Degree, p.Workers) })
	return res
}

// splitFields is barytree's Plan.SolveWithField (build-time charges) as
// one call per layer.
func splitFields(pl *core.Plan, k kernel.GradKernel, rec *Recorder, parent, op int, ls series) *barytree.FieldResult {
	var st *core.ChargeState
	ls.timed(rec, "charges", parent, op, func() {
		st = core.NewChargeState(pl)
		st.Compute(pl, pl.Params.Workers)
	})
	n := pl.Batches.Targets.Len()
	phi, gx, gy, gz := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	ls.timed(rec, "compute", parent, op, func() {
		core.RunFieldsState(pl, k, st, phi, gx, gy, gz, pl.Params.Workers)
	})
	res := &barytree.FieldResult{Phi: make([]float64, n), GX: make([]float64, n), GY: make([]float64, n), GZ: make([]float64, n)}
	ls.timed(rec, "scatter", parent, op, func() {
		perm := pl.Batches.Perm
		perm.ScatterInto(res.Phi, phi)
		perm.ScatterInto(res.GX, gx)
		perm.ScatterInto(res.GY, gy)
		perm.ScatterInto(res.GZ, gz)
	})
	perWork(ls, pl)
	return res
}

func sameField(a, b *barytree.FieldResult) bool {
	return sameBits(a.Phi, b.Phi) && sameBits(a.GX, b.GX) && sameBits(a.GY, b.GY) && sameBits(a.GZ, b.GZ)
}

func clone(s []float64) []float64 { return append([]float64(nil), s...) }
