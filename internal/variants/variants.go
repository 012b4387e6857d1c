// Package variants implements the barycentric *cluster-particle* and
// *cluster-cluster* treecodes that the paper lists as future work for GPU
// acceleration (conclusions, refs [30]-[32]; the cluster-cluster scheme
// became the authors' follow-up dual-tree code, BLDTT).
//
// All three schemes share the same ingredients — cluster trees, Chebyshev
// grids, the MAC — and differ in which side of the interaction is
// compressed:
//
//   - particle-cluster (PC, the paper's BLTC; package core): source
//     clusters carry modified charges q-hat; targets sum over source
//     proxies.
//   - cluster-particle (CP): *target* clusters carry accumulated proxy
//     potentials phi-hat at their Chebyshev points; sources scatter into
//     them, and a downward interpolation pass (L2L + L2P in FMM language)
//     delivers the potential to each target.
//   - cluster-cluster (CC): both compressions at once; well-separated
//     cluster pairs interact proxy-to-proxy, which lowers the interaction
//     count from O(N_B (n+1)^3) to O((n+1)^6) per admissible pair.
//
// These run on the CPU backend; they reuse the same kernels, grids and
// charge machinery as package core, so accuracy properties carry over.
package variants

import (
	"fmt"

	"barytree/internal/chebyshev"
	"barytree/internal/core"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/tree"
)

// Stats counts the interaction work of a variant run, split by interaction
// type (PP = particle-particle direct, PC = particle with source proxies,
// CP = target proxies with particles, CC = proxy with proxy).
type Stats struct {
	PPPairs, PCPairs, CPPairs, CCPairs                             int
	PPInteractions, PCInteractions, CPInteractions, CCInteractions int64
	MACTests                                                       int
	DownwardInterp                                                 int64 // L2L + L2P interpolation evaluations
}

// Total returns all pairwise kernel/proxy evaluations.
func (s Stats) Total() int64 {
	return s.PPInteractions + s.PCInteractions + s.CPInteractions + s.CCInteractions
}

// Result is the output of a variant run.
type Result struct {
	Phi   []float64 // potentials in original target order
	Stats Stats
}

// clusterPotentials holds the accumulated proxy potentials phi-hat of every
// target cluster.
type clusterPotentials struct {
	data [][]float64 // per target node, length (n+1)^3
}

func newClusterPotentials(t *tree.Tree, np int) *clusterPotentials {
	cp := &clusterPotentials{data: make([][]float64, len(t.Nodes))}
	for i := range cp.data {
		cp.data[i] = make([]float64, np)
	}
	return cp
}

// RunCP evaluates the potentials with the cluster-particle treecode: the
// dual of the paper's BLTC. Source particles are grouped into the leaves
// of a source tree (the analogue of target batches); each group scatters
// either directly into target particles or into the Chebyshev proxies of a
// well-separated target cluster; a downward pass interpolates the
// accumulated proxies to the targets.
func RunCP(k kernel.Kernel, targets, sources *particle.Set, p core.Params) (*Result, error) {
	if err := validate(targets, sources, p); err != nil {
		return nil, err
	}
	tt := tree.Build(targets, p.BatchSize)
	st := tree.Build(sources, p.LeafSize)
	if len(tt.Nodes) == 0 {
		return &Result{Phi: nil}, nil
	}
	tcd := core.NewClusterData(tt, p.Degree)
	np := tcd.Grids[0].NumPoints()
	phiHat := newClusterPotentials(tt, np)
	phi := make([]float64, targets.Len()) // tree order
	res := &Result{}

	// Scatter every source leaf into the target tree through the kernel's
	// tiles (resolved once for the whole run).
	tiles := kernel.Tiles(k)
	for _, si := range st.Leaves() {
		s := &st.Nodes[si]
		scatterCP(tiles, tt, tcd, st.Particles, s, phiHat, phi, &res.Stats, p)
	}

	// Downward pass: L2L to leaves, then L2P to particles.
	downward(tt, tcd, phiHat, phi, &res.Stats)

	res.Phi = make([]float64, targets.Len())
	tt.Perm.ScatterInto(res.Phi, phi)
	return res, nil
}

// scatterCP walks the target tree for one source leaf s.
func scatterCP(tiles []kernel.Sized[kernel.Tile], tt *tree.Tree, tcd *core.ClusterData, src *particle.Set,
	s *tree.Node, phiHat *clusterPotentials, phi []float64, st *Stats, p core.Params) {

	np := tcd.Grids[0].NumPoints()
	stack := []int32{int32(tt.Root())}
	for len(stack) > 0 {
		ti := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := &tt.Nodes[ti]
		st.MACTests++
		dist := t.Center.Dist(s.Center)
		wellSeparated := (t.Radius + s.Radius) < p.Theta*dist
		if wellSeparated && np < t.Count() {
			// CP: accumulate onto the target cluster's proxies.
			kernel.Accumulate(tiles, tcd.PX[ti], tcd.PY[ti], tcd.PZ[ti],
				src.X[s.Lo:s.Hi], src.Y[s.Lo:s.Hi], src.Z[s.Lo:s.Hi], src.Q[s.Lo:s.Hi], phiHat.data[ti])
			st.CPPairs++
			st.CPInteractions += int64(np) * int64(s.Count())
			continue
		}
		if wellSeparated || t.IsLeaf() {
			// Direct: every target in t against every source in s. (When
			// well-separated but the cluster is smaller than its grid,
			// direct is cheaper and exact, mirroring the PC size check.)
			directPP(tiles, tt.Particles, t, src, s, phi, st)
			continue
		}
		stack = append(stack, t.Children...)
	}
}

// downward pushes accumulated proxy potentials from parents into children
// (the parent's interpolant at the child's Chebyshev points, through the
// transfer operator the charge pass pushes charges up with) and finally
// interpolates each leaf's proxies to its particles.
func downward(tt *tree.Tree, tcd *core.ClusterData, phiHat *clusterPotentials, phi []float64, st *Stats) {
	tr := chebyshev.NewTransfer(tcd.Degree, make([]float64, chebyshev.TransferLen(tcd.Degree)))
	// Nodes are stored parent-before-children (construction order), so a
	// forward sweep is a correct topological order.
	for ti := range tt.Nodes {
		t := &tt.Nodes[ti]
		src := phiHat.data[ti]
		g := tcd.Grids[ti]
		if t.IsLeaf() {
			for i := t.Lo; i < t.Hi; i++ {
				phi[i] += g.Interpolate(src, tt.Particles.At(i))
				st.DownwardInterp++
			}
			continue
		}
		for _, ci := range t.Children {
			tr.Set(g, tcd.Grids[ci])
			tr.Down(src, phiHat.data[ci])
			st.DownwardInterp += int64(len(phiHat.data[ci]))
		}
	}
}

// RunCC evaluates the potentials with the cluster-cluster (dual tree
// traversal) treecode: modified charges compress the source side, proxy
// potentials compress the target side, and well-separated cluster pairs
// interact proxy-to-proxy.
func RunCC(k kernel.Kernel, targets, sources *particle.Set, p core.Params) (*Result, error) {
	if err := validate(targets, sources, p); err != nil {
		return nil, err
	}
	tt := tree.Build(targets, p.BatchSize)
	st := tree.Build(sources, p.LeafSize)
	if len(tt.Nodes) == 0 || len(st.Nodes) == 0 {
		return &Result{Phi: make([]float64, targets.Len())}, nil
	}
	tcd := core.NewClusterData(tt, p.Degree)
	scd := core.NewClusterData(st, p.Degree)
	// Upward pass: the source tree's modified charges, in a charge state
	// over a plan that holds just the source tree and its grids.
	spl := &core.Plan{Sources: st, Clusters: scd}
	charges := core.NewChargeState(spl)
	charges.Compute(spl, 0)
	qhat := charges.Qhat

	np := tcd.Grids[0].NumPoints()
	phiHat := newClusterPotentials(tt, np)
	phi := make([]float64, targets.Len())
	res := &Result{}

	// Resolve the tiles once for the whole dual traversal.
	tiles := kernel.Tiles(k)
	var dual func(ti, si int32)
	dual = func(ti, si int32) {
		t := &tt.Nodes[ti]
		s := &st.Nodes[si]
		res.Stats.MACTests++
		dist := t.Center.Dist(s.Center)
		if (t.Radius + s.Radius) < p.Theta*dist {
			bigT := np < t.Count()
			bigS := np < s.Count()
			switch {
			case bigT && bigS:
				// CC: proxies-to-proxies.
				kernel.Accumulate(tiles, tcd.PX[ti], tcd.PY[ti], tcd.PZ[ti],
					scd.PX[si], scd.PY[si], scd.PZ[si], qhat[si], phiHat.data[ti])
				res.Stats.CCPairs++
				res.Stats.CCInteractions += int64(np) * int64(len(qhat[si]))
			case bigS:
				// PC: targets of t against source proxies (the BLTC form).
				kernel.Accumulate(tiles, tt.Particles.X[t.Lo:t.Hi], tt.Particles.Y[t.Lo:t.Hi], tt.Particles.Z[t.Lo:t.Hi],
					scd.PX[si], scd.PY[si], scd.PZ[si], qhat[si], phi[t.Lo:t.Hi])
				res.Stats.PCPairs++
				res.Stats.PCInteractions += int64(t.Count()) * int64(np)
			case bigT:
				// CP: target proxies against source particles.
				kernel.Accumulate(tiles, tcd.PX[ti], tcd.PY[ti], tcd.PZ[ti],
					st.Particles.X[s.Lo:s.Hi], st.Particles.Y[s.Lo:s.Hi], st.Particles.Z[s.Lo:s.Hi],
					st.Particles.Q[s.Lo:s.Hi], phiHat.data[ti])
				res.Stats.CPPairs++
				res.Stats.CPInteractions += int64(np) * int64(s.Count())
			default:
				directPP(tiles, tt.Particles, t, st.Particles, s, phi, &res.Stats)
			}
			return
		}
		// Not well separated: split the larger cluster.
		switch {
		case t.IsLeaf() && s.IsLeaf():
			directPP(tiles, tt.Particles, t, st.Particles, s, phi, &res.Stats)
		case s.IsLeaf() || (!t.IsLeaf() && t.Radius >= s.Radius):
			for _, ci := range t.Children {
				dual(ci, si)
			}
		default:
			for _, ci := range s.Children {
				dual(ti, ci)
			}
		}
	}
	dual(int32(tt.Root()), int32(st.Root()))

	downward(tt, tcd, phiHat, phi, &res.Stats)

	res.Phi = make([]float64, targets.Len())
	tt.Perm.ScatterInto(res.Phi, phi)
	return res, nil
}

// directPP accumulates the source particles of s directly into the
// targets of t through the kernel's tiles, widest first, and counts the
// pair.
func directPP(tiles []kernel.Sized[kernel.Tile], tg *particle.Set, t *tree.Node, src *particle.Set, s *tree.Node, phi []float64, stats *Stats) {
	kernel.Accumulate(tiles, tg.X[t.Lo:t.Hi], tg.Y[t.Lo:t.Hi], tg.Z[t.Lo:t.Hi],
		src.X[s.Lo:s.Hi], src.Y[s.Lo:s.Hi], src.Z[s.Lo:s.Hi], src.Q[s.Lo:s.Hi], phi[t.Lo:t.Hi])
	stats.PPPairs++
	stats.PPInteractions += int64(t.Count()) * int64(s.Count())
}

// validate checks what core.NewPlan checks before RunPC's tree builds, in
// its order and with its wording: the parameters, then that the sources
// and the targets are finite (the tree build assumes no NaN).
func validate(targets, sources *particle.Set, p core.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := sources.Validate(); err != nil {
		return fmt.Errorf("core: bad sources: %w", err)
	}
	if err := targets.Validate(); err != nil {
		return fmt.Errorf("core: bad targets: %w", err)
	}
	return nil
}

// RunPC evaluates the potentials with the paper's particle-cluster BLTC
// (package core) and adapts the result to this package's Result type, so
// the three variants can be compared uniformly.
func RunPC(k kernel.Kernel, targets, sources *particle.Set, p core.Params) (*Result, error) {
	pl, err := core.NewPlan(targets, sources, p)
	if err != nil {
		return nil, err
	}
	r := core.RunCPU(pl, k, core.CPUOptions{})
	return &Result{
		Phi: r.Phi,
		Stats: Stats{
			PPPairs:        r.Interactions.DirectPairs,
			PCPairs:        r.Interactions.ApproxPairs,
			PPInteractions: r.Interactions.DirectInteractions,
			PCInteractions: r.Interactions.ApproxInteractions,
			MACTests:       r.Interactions.MACTests,
		},
	}, nil
}

// Run dispatches by name ("pc", "cp", "cc"); it is the entry point used by
// the comparison bench and cmd tooling.
func Run(method string, k kernel.Kernel, targets, sources *particle.Set, p core.Params) (*Result, error) {
	switch method {
	case "pc":
		return RunPC(k, targets, sources, p)
	case "cp":
		return RunCP(k, targets, sources, p)
	case "cc":
		return RunCC(k, targets, sources, p)
	}
	return nil, fmt.Errorf("variants: unknown method %q (want pc, cp or cc)", method)
}
