// Package core implements the barycentric Lagrange treecode (BLTC) itself:
// cluster interpolation data, modified charges, the batch/cluster potential
// evaluation kernels, and drivers for serial CPU, multicore CPU and
// simulated-GPU execution. The distributed multi-GPU driver lives in
// internal/dist on top of this package.
package core

import (
	"fmt"
	"math"

	"barytree/internal/interaction"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/tree"
)

// Params are the treecode parameters of the paper: MAC parameter theta,
// interpolation degree n, source-tree leaf size NL and target batch size NB.
type Params struct {
	Theta     float64 // MAC opening parameter, 0 < Theta < 1
	Degree    int     // interpolation degree n >= 1
	LeafSize  int     // NL, maximum particles per source leaf
	BatchSize int     // NB, maximum targets per batch

	// Workers bounds the host goroutines used by the setup phase (tree and
	// batch construction, interaction lists, cluster-grid layout) and by
	// the charge and compute passes of plan solves (Plan.Solve,
	// Plan.SolveWithField, Solver); <= 0 selects GOMAXPROCS. It is a host
	// execution knob only: results, modeled times and trace output are
	// bit-identical for every value.
	Workers int

	// Morton selects the Morton-ordered canonical build (tree.BuildMorton)
	// instead of the midpoint-split build. A Morton plan supports
	// Plan.Update — in-place refit, incremental repair, or full rebuild
	// after its particles move — because the whole structure is a pure
	// function of the particle multiset; see internal/tree/morton.go. Its
	// targets must sit at the sources' positions (the N-body setting):
	// the particles are sorted once and the batches cut from that order.
	// The two builds produce different (both valid) trees, so Morton
	// changes result bits relative to the default build and participates
	// in the serving layer's geometry hash.
	Morton bool
}

// DefaultParams returns the parameters of the paper's scaling runs:
// theta = 0.8, n = 8, NL = NB = 4000 (5-6 digit accuracy).
func DefaultParams() Params {
	return Params{Theta: 0.8, Degree: 8, LeafSize: 4000, BatchSize: 4000}
}

// Validate returns an error if the parameters are out of range.
func (p Params) Validate() error {
	if !(p.Theta > 0 && p.Theta < 1) {
		return fmt.Errorf("core: MAC parameter theta must be in (0,1), got %g", p.Theta)
	}
	if p.Degree < 1 {
		return fmt.Errorf("core: interpolation degree must be >= 1, got %d", p.Degree)
	}
	if p.LeafSize < 1 {
		return fmt.Errorf("core: leaf size must be >= 1, got %d", p.LeafSize)
	}
	if p.BatchSize < 1 {
		return fmt.Errorf("core: batch size must be >= 1, got %d", p.BatchSize)
	}
	return nil
}

// MAC returns the multipole acceptance criterion for these parameters.
func (p Params) MAC() interaction.MAC {
	return interaction.MAC{Theta: p.Theta, Degree: p.Degree}
}

// Plan is the output of the treecode's setup phase for a shared-memory run:
// the source cluster tree, the target batches, the batch/cluster interaction
// lists, and the per-cluster interpolation grids. A Plan is independent of
// the interaction kernel, so one Plan can be evaluated under several kernels
// (as Figure 4 does for Coulomb and Yukawa).
type Plan struct {
	Params   Params
	Sources  *tree.Tree
	Batches  *tree.BatchSet
	Lists    *interaction.Lists
	Clusters *ClusterData

	// upd holds the Morton-mode update state (nil for midpoint builds);
	// gen counts Updates applied so far and invalidates ChargeStates
	// created against earlier geometry. See update.go.
	upd *updState
	gen uint64
}

// NewPlan runs the setup phase: build the source tree and target batches,
// create the interaction lists, and lay out the cluster interpolation grids.
// A Morton plan (Params.Morton) requires the targets at the sources'
// positions, bit for bit; their charges are not read. A midpoint plan
// whose targets sit at the sources' positions with BatchSize == LeafSize
// takes its batches from the source tree's leaves, which the targets'
// own build would reproduce bit for bit; Batches.Targets then aliases
// Sources.Particles (target charges are never read).
func NewPlan(targets, sources *particle.Set, p Params) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := sources.Validate(); err != nil {
		return nil, fmt.Errorf("core: bad sources: %w", err)
	}
	if err := targets.Validate(); err != nil {
		return nil, fmt.Errorf("core: bad targets: %w", err)
	}
	if p.Morton {
		if !samePositions(targets, sources) {
			return nil, fmt.Errorf("core: a Morton plan requires the targets at the sources' positions")
		}
		return newMortonPlan(sources, p), nil
	}
	t := tree.BuildWorkers(sources, p.LeafSize, p.Workers)
	var b *tree.BatchSet
	if p.BatchSize == p.LeafSize && samePositions(targets, sources) {
		// The targets' tree at BatchSize would be t again: the midpoint
		// build reads positions alone and is deterministic.
		b = tree.BatchSetFromTree(t)
	} else {
		b = tree.BuildBatchesWorkers(targets, p.BatchSize, p.Workers)
	}
	lists := interaction.BuildListsWorkers(b, t, p.MAC(), p.Workers)
	return &Plan{
		Params:   p,
		Sources:  t,
		Batches:  b,
		Lists:    lists,
		Clusters: NewClusterDataWorkers(t, p.Degree, p.Workers),
	}, nil
}

// newMortonPlan is the Morton-mode setup phase over particles that are
// both the sources and the targets, shared by NewPlan and Plan.Update's
// rebuild path (which is what makes a rebuild trivially bit-identical to
// a fresh plan at the new positions). The particles are sorted once: the
// target batches are the source tree's Morton order cut at BatchSize, and
// the cut is kept alongside the plan so updates can refit and re-cut it.
func newMortonPlan(pts *particle.Set, p Params) *Plan {
	st, idx := tree.BuildMortonWorkers(pts, p.LeafSize, p.Workers)
	cut := st.MortonCut(idx, p.BatchSize, p.Workers)
	b := tree.BatchSetFromTree(cut)
	lists := interaction.BuildListsWorkers(b, st, p.MAC(), p.Workers)
	return &Plan{
		Params:   p,
		Sources:  st,
		Batches:  b,
		Lists:    lists,
		Clusters: NewClusterDataWorkers(st, p.Degree, p.Workers),
		upd:      &updState{idx: idx, cut: cut},
	}
}

// samePositions reports whether two particle sets hold bit-identical
// coordinates (charges may differ).
func samePositions(a, b *particle.Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	same := func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }
	for i := range a.X {
		if !same(a.X[i], b.X[i]) || !same(a.Y[i], b.Y[i]) || !same(a.Z[i], b.Z[i]) {
			return false
		}
	}
	return true
}

// SetupWork converts the plan's construction counters into modeled CPU
// seconds for the setup phase.
func (pl *Plan) SetupWork(cpu perfmodel.CPUSpec) float64 {
	treeOps := float64(pl.Sources.Stats.ParticleScans + pl.Sources.Stats.ParticleMoves +
		pl.Batches.Stats.ParticleScans + pl.Batches.Stats.ParticleMoves)
	return treeOps/cpu.TreeOpRate + float64(pl.Lists.Stats.MACTests)/cpu.MACTestRate
}
