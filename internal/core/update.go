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
	// OutOfTolerance counts particles (sources + targets) that left their
	// leaf's drift-tolerance envelope; beyond RefitMaxOutOfTolerance of
	// the particle count it disables the refit path.
	OutOfTolerance int
	// Drifters counts particles (sources + targets) whose Morton code left
	// its leaf's cell — the particles a repair re-buckets. Beyond
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
// particles (targets and sources counted together) breached their leaf's
// drift envelope. The envelope is a locality heuristic, not a correctness
// bound — the MAC recheck is what keeps a refit exact — so the few
// stragglers every large dynamic system produces (tight pairs whose leaf
// envelope is tiny) must not force a repair of an otherwise-stationary
// tree. Zero admits only fully-in-tolerance refits. A variable so tests
// can pin each path.
var RefitMaxOutOfTolerance = 0.001

// updState is the per-plan state behind Plan.Update (Morton mode only):
// the source-tree Morton index, the hidden target tree whose leaves are
// the batch set, a modeled clock for trace spans, and scratch reused
// across updates.
type updState struct {
	srcIdx *tree.MortonIndex
	tgt    *tree.Tree // target tree with leaf size = BatchSize; Batches are its leaves
	tgtIdx *tree.MortonIndex
	shared bool    // targets and sources had bit-identical positions at build
	clock  float64 // modeled seconds consumed by updates so far (span placement)

	srcCodes, tgtCodes   []uint64
	srcDrifts, tgtDrifts []int32
}

// Update moves the plan to new particle positions, given in the order the
// particles were originally passed to NewPlan. It requires a Morton-mode
// plan (Params.Morton) whose targets and sources coincide, and picks the
// cheapest structural path that keeps the plan exact for the new geometry:
//
//   - refit: all but a vanishing fraction of the particles (see
//     RefitMaxOutOfTolerance) are within DriftTol of their leaf and the
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
	if !u.shared {
		return st, fmt.Errorf("core: Plan.Update requires the plan's targets and sources to be the same particles")
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

	// New positions into tree order (sources) and batch order (targets).
	// pl.Batches.Targets aliases u.tgt.Particles, so one scatter covers
	// both views.
	src := pl.Sources.Particles
	for ti, oi := range pl.Sources.Perm {
		src.X[ti], src.Y[ti], src.Z[ti] = x[oi], y[oi], z[oi]
	}
	tgt := u.tgt.Particles
	for ti, oi := range u.tgt.Perm {
		tgt.X[ti], tgt.Y[ti], tgt.Z[ti] = x[oi], y[oi], z[oi]
	}

	// Evidence: tolerance breaches against the current leaf boxes, new
	// Morton codes under the current domain, cell drifters, domain drift.
	tol := pl.Params.driftTol()
	st.OutOfTolerance = u.srcIdx.OutOfTolerance(pl.Sources, tol) + u.tgtIdx.OutOfTolerance(u.tgt, tol)
	u.srcCodes = u.srcIdx.EncodeInto(u.srcCodes, src, workers)
	u.tgtCodes = u.tgtIdx.EncodeInto(u.tgtCodes, tgt, workers)
	u.srcDrifts = u.srcIdx.Drifters(pl.Sources, u.srcCodes, u.srcDrifts[:0])
	u.tgtDrifts = u.tgtIdx.Drifters(u.tgt, u.tgtCodes, u.tgtDrifts[:0])
	st.Drifters = len(u.srcDrifts) + len(u.tgtDrifts)
	domainOK := tree.SnapMortonDomain(src.Bounds()) == u.srcIdx.Domain

	if float64(st.OutOfTolerance) <= RefitMaxOutOfTolerance*float64(2*n) {
		// Tentative refit: new boxes, then recheck every cached
		// approximation. Falling through to repair/rebuild is safe — both
		// recompute boxes from scratch.
		pl.Sources.RefitBoxesWorkers(workers)
		u.tgt.RefitBoxesWorkers(workers)
		pl.Batches.RefreshFromTree(u.tgt)
		st.MACViolations = interaction.RecheckApproxWorkers(pl.Lists, pl.Batches, pl.Sources, pl.Params.MAC(), workers)
		if float64(st.MACViolations) <= RefitMaxMACDemotions*float64(pl.Lists.Stats.ApproxPairs) {
			if st.MACViolations > 0 {
				interaction.DemoteFailingApprox(pl.Lists, pl.Batches, pl.Sources, pl.Params.MAC(), workers)
			}
			pl.Clusters.RefitGridsWorkers(pl.Sources, workers)
			u.srcIdx.Codes, u.srcCodes = u.srcCodes, u.srcIdx.Codes
			u.tgtIdx.Codes, u.tgtCodes = u.tgtCodes, u.tgtIdx.Codes
			st.Action = UpdateRefit
			spec := perfmodel.XeonX5650()
			dur := 4*float64(n)/spec.TreeOpRate + float64(pl.Lists.Stats.ApproxPairs)/spec.MACTestRate
			pl.finishUpdate(st, dur, tr)
			return st, nil
		}
	}

	maxRepair := int(RepairMaxFraction * float64(n))
	if domainOK && len(u.srcDrifts) <= maxRepair && len(u.tgtDrifts) <= maxRepair {
		pl.Sources.MortonRepair(u.srcIdx, u.srcCodes, u.srcDrifts, workers)
		u.tgt.MortonRepair(u.tgtIdx, u.tgtCodes, u.tgtDrifts, workers)
		pl.Batches = tree.BatchSetFromTree(u.tgt)
		pl.Lists = interaction.BuildListsWorkers(pl.Batches, pl.Sources, pl.Params.MAC(), workers)
		pl.Clusters = NewClusterDataWorkers(pl.Sources, pl.Params.Degree, workers)
		st.Action = UpdateRepair
		pl.finishUpdate(st, pl.SetupWork(perfmodel.XeonX5650()), tr)
		return st, nil
	}

	// Full rebuild through the same code path as NewPlan, from the
	// original-order coordinates and the charges carried by the current
	// trees (scattered back to original order).
	origSrc := &particle.Set{X: cloneF(x), Y: cloneF(y), Z: cloneF(z), Q: make([]float64, n)}
	for ti, oi := range pl.Sources.Perm {
		origSrc.Q[oi] = src.Q[ti]
	}
	origTgt := &particle.Set{X: cloneF(x), Y: cloneF(y), Z: cloneF(z), Q: make([]float64, n)}
	for ti, oi := range u.tgt.Perm {
		origTgt.Q[oi] = tgt.Q[ti]
	}
	np := newMortonPlan(origTgt, origSrc, pl.Params)
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

func cloneF(s []float64) []float64 {
	c := make([]float64, len(s))
	copy(c, s)
	return c
}
