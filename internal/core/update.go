package core

import (
	"fmt"

	"barytree/internal/interaction"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/trace"
	"barytree/internal/tree"
)

// UpdateAction is the structural path one Plan.Update took.
type UpdateAction int

const (
	// UpdateRefit kept the tree topology and cached interaction lists,
	// refitting node boxes bottom-up and re-laying the Chebyshev grids in
	// place: the particles stayed within the drift tolerance of their
	// leaves and the cached approximations still pass the MAC (the odd
	// marginal pair is demoted to exact direct summation, see
	// RefitMaxMACDemotions).
	UpdateRefit UpdateAction = iota
	// UpdateRepair re-established the canonical Morton order
	// incrementally — re-bucketing the particles that left their leaf's
	// cell — and rebuilt the interaction lists; bit-identical to a fresh
	// build at the new positions.
	UpdateRepair
	// UpdateRebuild ran the full Morton setup phase from scratch (domain
	// change, widespread drift, or too many MAC violations to trust
	// locality); trivially bit-identical to a fresh build.
	UpdateRebuild
)

// String returns the action's span name ("update.refit" etc.).
func (a UpdateAction) String() string {
	switch a {
	case UpdateRefit:
		return SpanUpdateRefit
	case UpdateRepair:
		return SpanUpdateRepair
	default:
		return SpanUpdateRebuild
	}
}

// Trace span and counter names emitted by Plan.Update; see
// docs/observability.md for the taxonomy.
const (
	SpanUpdateRefit   = "update.refit"
	SpanUpdateRepair  = "update.repair"
	SpanUpdateRebuild = "update.rebuild"

	CounterUpdateDrifters       = "update.drifters"
	CounterUpdateOutOfTolerance = "update.out_of_tolerance"
	CounterUpdateMACViolations  = "update.mac_violations"
)

// UpdateSpanNames returns the phase/span names Plan.Update can emit, for
// the public TracePhaseNames listing.
func UpdateSpanNames() []string {
	return []string{SpanUpdateRefit, SpanUpdateRepair, SpanUpdateRebuild}
}

// UpdateStats reports what one Plan.Update decided and why.
type UpdateStats struct {
	// Action is the structural path taken.
	Action UpdateAction
	// OutOfTolerance counts the particles that left their source leaf's
	// drift-tolerance envelope (see driftTol); beyond
	// RefitMaxOutOfTolerance of the particle count it disables the refit
	// path.
	OutOfTolerance int
	// Drifters counts the particles whose Morton code left their source
	// leaf's cell — the particles a repair re-buckets. Beyond
	// RepairMaxFraction of the particles, Update rebuilds instead.
	Drifters int
	// MACViolations counts cached approximation pairs that failed the
	// geometric MAC recheck after a tentative box refit. Up to
	// RefitMaxMACDemotions of the approximation pairs, the violators are
	// demoted to (exact) direct summation and the refit stands; beyond
	// that the update falls through to repair or rebuild.
	MACViolations int
}

// RepairMaxFraction bounds the incremental-repair path: when more than
// this fraction of the particles left their leaf cells, a full rebuild is
// cheaper and better conditioned than re-bucketing. A variable so tests
// can force each path.
var RepairMaxFraction = 0.10

// RefitMaxMACDemotions bounds the list-repair half of the refit fast
// path: when at most this fraction of the cached approximation pairs fail
// the MAC recheck, the failing pairs are demoted to direct summation
// (exact for any geometry, see interaction.DemoteFailingApprox) and the
// refit stands; beyond it the lists have genuinely degraded and the
// update falls through to repair or rebuild. A variable so tests can pin
// each path.
var RefitMaxMACDemotions = 0.01

// RefitMaxOutOfTolerance bounds the refit fast path: the tentative refit
// (and its MAC recheck) is attempted while at most this fraction of the
// particles breached their leaf's drift envelope. The envelope is a
// locality heuristic, not a correctness bound — the MAC recheck is what
// keeps a refit exact — so the few stragglers every large dynamic system
// produces (tight pairs whose leaf envelope is tiny) must not force a
// repair of an otherwise-stationary tree. Zero admits only
// fully-in-tolerance refits. A variable so tests can pin each path.
var RefitMaxOutOfTolerance = 0.001

// driftTol is Plan.Update's refit tolerance: a particle may stray from its
// leaf's bounding box by at most driftTol times the leaf's drift scale
// (boundary inclusive; see tree.MortonIndex.OutOfTolerance) and still
// count as in tolerance. It shapes only the refit/repair/rebuild policy,
// never results: every update path is exact for its geometry.
const driftTol = 0.25

// updState is the per-plan state behind Plan.Update (Morton mode only):
// the source tree's Morton index, the cut of its order at BatchSize whose
// leaves are the batch set, a modeled clock for trace spans, and scratch
// reused across updates.
type updState struct {
	idx   *tree.MortonIndex
	cut   *tree.Tree // pl.Sources cut at BatchSize; Batches are its leaves
	clock float64    // modeled seconds consumed by updates so far (span placement)

	codes  []uint64
	drifts []int32
}

// Update moves the plan to new particle positions, given in the order the
// particles were originally passed to NewPlan. It requires a Morton-mode
// plan (Params.Morton), whose targets sit at its sources' positions, so
// the evidence is gathered once per particle on the source tree. It picks
// the cheapest structural path that keeps the plan exact for the new
// geometry:
//
//   - refit: all but a vanishing fraction of the particles (see
//     RefitMaxOutOfTolerance) are within driftTol of their leaf and the
//     cached approximations still pass the MAC recheck — boxes are refit
//     bottom-up, the Chebyshev grids re-laid in place, and the few
//     marginal approximation pairs that flipped (at most
//     RefitMaxMACDemotions) demoted to exact direct summation; the tree
//     order and topology are untouched.
//   - repair: drift is local (at most RepairMaxFraction of particles left
//     their leaf's Morton cell) and the quantization domain is unchanged —
//     the canonical order is restored incrementally and the lists rebuilt.
//   - rebuild: the full Morton setup phase re-runs.
//
// After a repair or rebuild the plan is bit-identical to a fresh NewPlan
// at the new positions (same input order, same charges); after a refit
// with unchanged positions the plan is bit-identical to itself. The
// decision and its evidence are emitted as trace spans and counters on tr
// (nil is fine).
//
// Update mutates the plan and must have it exclusively: no concurrent
// solves, and ChargeStates created before the update panic on their next
// SetCharges/Compute rather than silently evaluating stale geometry.
// Plan-level Solve calls create a fresh state per call and are always
// safe after an Update.
func (pl *Plan) Update(x, y, z []float64, tr *trace.Tracer) (UpdateStats, error) {
	var st UpdateStats
	u := pl.upd
	if u == nil {
		return st, fmt.Errorf("core: Plan.Update requires a Morton-mode plan (set Params.Morton)")
	}
	n := pl.Sources.Particles.Len()
	if len(x) != n || len(y) != n || len(z) != n {
		return st, fmt.Errorf("core: Update got %d/%d/%d coordinates for %d particles", len(x), len(y), len(z), n)
	}
	for i := 0; i < n; i++ {
		if !isFinite(x[i]) || !isFinite(y[i]) || !isFinite(z[i]) {
			return st, fmt.Errorf("core: non-finite coordinate at index %d", i)
		}
	}
	workers := pl.Params.Workers
	if n == 0 {
		st.Action = UpdateRefit
		pl.finishUpdate(st, 0, tr)
		return st, nil
	}

	// New positions into tree order. The cut and pl.Batches.Targets share
	// pl.Sources' particle storage, so one scatter covers every view.
	src := pl.Sources.Particles
	for ti, oi := range pl.Sources.Perm {
		src.X[ti], src.Y[ti], src.Z[ti] = x[oi], y[oi], z[oi]
	}

	// Evidence: tolerance breaches against the current leaf boxes, new
	// Morton codes under the current domain, cell drifters, domain drift.
	st.OutOfTolerance = u.idx.OutOfTolerance(pl.Sources, driftTol)
	u.codes = u.idx.EncodeInto(u.codes, src, workers)
	u.drifts = u.idx.Drifters(pl.Sources, u.codes, u.drifts[:0])
	st.Drifters = len(u.drifts)
	domainOK := tree.SnapMortonDomain(src.Bounds()) == u.idx.Domain

	if float64(st.OutOfTolerance) <= RefitMaxOutOfTolerance*float64(n) {
		// Tentative refit: new boxes, then one MAC pass over every cached
		// approximation that demotes the pairs failing it. Falling through
		// to repair/rebuild is safe — both recompute boxes from scratch
		// and replace the lists.
		pl.Sources.RefitBoxesWorkers(workers)
		u.cut.RefitBoxesWorkers(workers)
		pl.Batches.RefreshFromTree(u.cut)
		approx := pl.Lists.Stats.ApproxPairs
		st.MACViolations = interaction.DemoteFailingApprox(pl.Lists, pl.Batches, pl.Sources, pl.Params.MAC(), workers)
		if float64(st.MACViolations) <= RefitMaxMACDemotions*float64(approx) {
			pl.Clusters.RefitGridsWorkers(pl.Sources, workers)
			u.idx.Codes, u.codes = u.codes, u.idx.Codes
			st.Action = UpdateRefit
			spec := perfmodel.XeonX5650()
			dur := 4*float64(n)/spec.TreeOpRate + float64(pl.Lists.Stats.ApproxPairs)/spec.MACTestRate
			pl.finishUpdate(st, dur, tr)
			return st, nil
		}
	}

	if domainOK && st.Drifters <= int(RepairMaxFraction*float64(n)) {
		// The repair replaces the source tree's particle storage, so the
		// batches are cut again from the repaired order.
		pl.Sources.MortonRepair(u.idx, u.codes, u.drifts, workers)
		u.cut = pl.Sources.MortonCut(u.idx, pl.Params.BatchSize, workers)
		pl.Batches = tree.BatchSetFromTree(u.cut)
		pl.Lists = interaction.BuildListsWorkers(pl.Batches, pl.Sources, pl.Params.MAC(), workers)
		pl.Clusters = NewClusterDataWorkers(pl.Sources, pl.Params.Degree, workers)
		st.Action = UpdateRepair
		pl.finishUpdate(st, pl.SetupWork(perfmodel.XeonX5650()), tr)
		return st, nil
	}

	// Full rebuild through the same code path as NewPlan, from the
	// original-order coordinates and the charges carried by the current
	// tree (scattered back to original order). The build copies its
	// input, so x, y and z are read, not kept.
	orig := &particle.Set{X: x, Y: y, Z: z, Q: make([]float64, n)}
	for ti, oi := range pl.Sources.Perm {
		orig.Q[oi] = src.Q[ti]
	}
	np := newMortonPlan(orig, pl.Params)
	np.upd.clock = u.clock
	pl.Sources, pl.Batches, pl.Lists, pl.Clusters, pl.upd = np.Sources, np.Batches, np.Lists, np.Clusters, np.upd
	st.Action = UpdateRebuild
	pl.finishUpdate(st, pl.SetupWork(perfmodel.XeonX5650()), tr)
	return st, nil
}

// finishUpdate bumps the plan generation and emits the decision's trace
// span (on the plan's modeled update clock) and counters. Safe on a nil
// tracer.
func (pl *Plan) finishUpdate(st UpdateStats, modeled float64, tr *trace.Tracer) {
	pl.gen++
	u := pl.upd
	start := u.clock
	u.clock += modeled
	tr.Span(st.Action.String(), trace.CatPhase, 0, trace.TrackHost, start, u.clock,
		trace.A("out_of_tolerance", st.OutOfTolerance),
		trace.A("drifters", st.Drifters),
		trace.A("mac_violations", st.MACViolations))
	tr.Add(st.Action.String(), 1)
	tr.Add(CounterUpdateDrifters, float64(st.Drifters))
	tr.Add(CounterUpdateOutOfTolerance, float64(st.OutOfTolerance))
	tr.Add(CounterUpdateMACViolations, float64(st.MACViolations))
}

func isFinite(v float64) bool { return v-v == 0 }
