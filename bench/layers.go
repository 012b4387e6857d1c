package bench

import (
	"barytree/internal/core"
	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/tree"
)

// splitNewPlan is core.NewPlan's midpoint build as one call per layer, each
// timed in a span under parent and added to ls.
func splitNewPlan(targets, sources *particle.Set, p core.Params, rec *Recorder, parent, op int, ls series) *core.Plan {
	var (
		t     *tree.Tree
		b     *tree.BatchSet
		lists *interaction.Lists
		cd    *core.ClusterData
	)
	ls.timed(rec, "tree", parent, op, func() { t = tree.BuildWorkers(sources, p.LeafSize, p.Workers) })
	ls.timed(rec, "batches", parent, op, func() { b = tree.BuildBatchesWorkers(targets, p.BatchSize, p.Workers) })
	ls.timed(rec, "lists", parent, op, func() { lists = interaction.BuildListsWorkers(b, t, p.MAC(), p.Workers) })
	ls.timed(rec, "grids", parent, op, func() { cd = core.NewClusterDataWorkers(t, p.Degree, p.Workers) })
	return &core.Plan{Params: p, Sources: t, Batches: b, Lists: lists, Clusters: cd}
}

// splitSolve is barytree's Plan.Solve as one call per layer.
func splitSolve(pl *core.Plan, k kernel.Kernel, q []float64, rec *Recorder, parent, op int, ls series) ([]float64, error) {
	var st *core.ChargeState
	var err error
	ls.timed(rec, "charges", parent, op, func() {
		st = core.NewChargeState(pl)
		if err = st.SetCharges(pl, q); err == nil {
			st.Compute(pl, pl.Params.Workers)
		}
	})
	if err != nil {
		return nil, err
	}
	phiBatch := make([]float64, pl.Batches.Targets.Len())
	ls.timed(rec, "compute", parent, op, func() {
		core.RunComputeState(pl, k, st, phiBatch, pl.Params.Workers)
	})
	out := make([]float64, len(phiBatch))
	ls.timed(rec, "scatter", parent, op, func() { pl.Batches.Perm.ScatterInto(out, phiBatch) })
	perWork(ls, pl)
	return out, nil
}

// perWork adds the charge pass's time per modeled flop and the compute
// pass's time per counted interaction, from the layer times just added.
func perWork(ls series, pl *core.Plan) {
	last := func(name string) float64 { return ls[name][len(ls[name])-1] }
	ls.add("charges_ns_per_flop", 1e9*last("charges")/pl.Clusters.TotalChargeWork(pl.Sources))
	ls.add("compute_ns_per_interaction", 1e9*last("compute")/float64(pl.Lists.Stats.TotalInteractions()))
}

// layerMetrics reports the per-layer metrics from traced set-ups and ops:
// ls holds per-call layer times plus the "setup", "op" and "untraced"
// totals; c supplies the counts.
func layerMetrics(r *Run, ls series, c workCounts) {
	for _, name := range []string{"tree", "batches", "lists", "grids", "charges", "compute", "scatter"} {
		r.metric(name+"_s", ls.median(name), len(ls[name]))
	}
	r.metric("setup_residual_s", residuals(ls, "setup", "tree", "batches", "lists", "grids"), len(ls["setup"]))
	r.metric("op_residual_s", residuals(ls, "op", "charges", "compute", "scatter"), len(ls["op"]))
	r.metric("trace_overhead_frac", ls.median("op")/ls.median("untraced")-1, len(ls["op"]))
	r.metric("charges_ns_per_flop", ls.median("charges_ns_per_flop"), len(ls["charges_ns_per_flop"]))
	r.metric("compute_ns_per_interaction", ls.median("compute_ns_per_interaction"), len(ls["compute_ns_per_interaction"]))
	c.report(r)
}

// residuals returns the median over calls of total minus its layers; the
// i-th sample of every series belongs to the i-th call.
func residuals(ls series, total string, layers ...string) float64 {
	res := make([]float64, len(ls[total]))
	for i, t := range ls[total] {
		parts := make([]float64, len(layers))
		for j, l := range layers {
			parts[j] = ls[l][i]
		}
		res[i] = Residual(t, parts...)
	}
	return Median(res)
}

// workCounts are the structural counts behind a traced op: tree nodes,
// nodes whose modified charges some approximation reads, interaction-list
// statistics and the size of the cluster grids.
type workCounts struct {
	nodes, useful int
	stats         interaction.Stats
	gridsBytes    float64
}

// planCounts sums the counts of plans.
func planCounts(plans ...*core.Plan) workCounts {
	var c workCounts
	for _, pl := range plans {
		c.add(len(pl.Sources.Nodes), countTrue(markRead(pl.Lists, len(pl.Sources.Nodes))), pl.Lists.Stats, pl.Params.Degree)
	}
	return c
}

func (c *workCounts) add(nodes, useful int, st interaction.Stats, degree int) {
	c.nodes += nodes
	c.useful += useful
	c.stats.MACTests += st.MACTests
	c.stats.DirectPairs += st.DirectPairs
	c.stats.ApproxPairs += st.ApproxPairs
	c.gridsBytes += gridsBytes(nodes, degree)
}

func (c workCounts) report(r *Run) {
	r.metric("tree_nodes", float64(c.nodes), 1)
	r.metric("mac_tests", float64(c.stats.MACTests), 1)
	r.metric("direct_pairs", float64(c.stats.DirectPairs), 1)
	r.metric("approx_pairs", float64(c.stats.ApproxPairs), 1)
	r.metric("grids_mb", c.gridsBytes/1e6, 1)
	r.metric("charges_useful_frac", float64(c.useful)/float64(c.nodes), 1)
}

// markRead flags the nodes some approximation list of l reads.
func markRead(l *interaction.Lists, nodes int) []bool {
	read := make([]bool, nodes)
	for _, list := range l.Approx {
		for _, ci := range list {
			read[ci] = true
		}
	}
	return read
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// gridsBytes is the size of a cluster-grid layout (core.ClusterData's
// arenas): per node 3(n+1) grid points, 3(n+1)^3 interpolation-point
// coordinates and (n+1)^3 modified charges, 8 bytes each.
func gridsBytes(nodes, degree int) float64 {
	m := degree + 1
	return float64(nodes*(3*m+4*m*m*m)) * 8
}
