// Package interaction implements the multipole acceptance criterion (MAC)
// and the batch/cluster traversal of the BLTC (Section 2.4 of the paper).
//
// For a target batch B of radius r_B and a source cluster C of radius r_C
// at center distance R, the approximation (11) is used when
//
//	(r_B + r_C) / R < theta   and   (n+1)^3 < N_C,
//
// where n is the interpolation degree and N_C the number of source
// particles in the cluster. When the geometric test fails, the traversal
// recurses into the cluster's children (or interacts directly with a leaf);
// when only the cluster-size test fails, the interaction is computed
// directly, since a direct sum over fewer particles than interpolation
// points is both faster and more accurate.
//
// The MAC is applied to the batch as a whole, not per target, which is what
// keeps all GPU threads of a batch on the same code path (Section 3.2).
package interaction

import (
	"barytree/internal/pool"
	"barytree/internal/tree"
)

// Decision is the outcome of one batch/cluster MAC test.
type Decision int

const (
	// Approximate means the MAC passed: use the barycentric approximation.
	Approximate Decision = iota
	// Direct means the interaction must be computed by direct summation
	// (leaf cluster failing the geometric test, or cluster smaller than its
	// interpolation grid).
	Direct
	// Recurse means the geometric test failed on an internal cluster:
	// descend into its children.
	Recurse
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Approximate:
		return "approximate"
	case Direct:
		return "direct"
	case Recurse:
		return "recurse"
	}
	return "unknown"
}

// MAC is the multipole acceptance criterion of equation (13).
type MAC struct {
	Theta  float64 // geometric opening parameter
	Degree int     // interpolation degree n
	// DisableSizeCheck drops the (n+1)^3 < N_C condition, approximating
	// every cluster that passes the geometric test. The paper includes the
	// size check because a direct sum over fewer particles than
	// interpolation points is both faster and more accurate; this flag
	// exists for the ablation that demonstrates exactly that.
	DisableSizeCheck bool
}

// InterpPoints returns (n+1)^3.
func (m MAC) InterpPoints() int {
	p := m.Degree + 1
	return p * p * p
}

// Test applies the MAC to a batch/cluster pair and returns the traversal
// decision, exactly mirroring lines 11-20 of the BLTC algorithm listing.
//
//hot:path
func (m MAC) Test(batchCenterDist, rB, rC float64, clusterCount int, clusterIsLeaf bool) Decision {
	geometric := (rB + rC) < m.Theta*batchCenterDist
	if geometric {
		if m.DisableSizeCheck || m.InterpPoints() < clusterCount {
			return Approximate
		}
		// MAC failed because (n+1)^3 >= N_C: direct is faster and more
		// accurate.
		return Direct
	}
	if clusterIsLeaf {
		return Direct
	}
	return Recurse
}

// Lists holds, for every target batch, the source clusters it approximates
// and the leaf clusters it interacts with directly. These are the
// interaction lists the CPU walks while launching GPU kernels (Section 3.2),
// and in the distributed code they determine exactly which remote data the
// locally essential tree must contain (Section 3.1).
type Lists struct {
	Approx [][]int32 // Approx[b] = cluster indices approximated by batch b
	Direct [][]int32 // Direct[b] = leaf cluster indices summed directly

	Stats Stats
}

// Stats counts traversal work and interaction volume; the performance model
// turns these into modeled time, and the ablation benches compare them
// across design variants.
type Stats struct {
	MACTests           int   // batch/cluster MAC evaluations
	ApproxPairs        int   // batch/cluster approximation launches
	DirectPairs        int   // batch/leaf direct-sum launches
	ApproxInteractions int64 // sum over approx pairs of N_B * (n+1)^3
	DirectInteractions int64 // sum over direct pairs of N_B * N_C
}

// TotalInteractions returns the total pairwise kernel evaluations implied by
// the lists.
func (s Stats) TotalInteractions() int64 {
	return s.ApproxInteractions + s.DirectInteractions
}

// Add accumulates o into s. All fields are sums of non-negative per-pair
// counts, so accumulation in any grouping reproduces the serial totals
// exactly (integer addition is associative and commutative).
func (s *Stats) Add(o Stats) {
	s.MACTests += o.MACTests
	s.ApproxPairs += o.ApproxPairs
	s.DirectPairs += o.DirectPairs
	s.ApproxInteractions += o.ApproxInteractions
	s.DirectInteractions += o.DirectInteractions
}

// BuildLists runs the batch/cluster dual traversal for every target batch
// against the source tree and returns the interaction lists, parallelized
// over target batches on all cores. The result is byte-identical to a
// serial build (BuildListsWorkers with one worker): each batch's traversal
// is independent and fully determined by the batch, the tree and the MAC,
// and the merged Stats are order-independent integer sums.
func BuildLists(batches *tree.BatchSet, src *tree.Tree, mac MAC) *Lists {
	return BuildListsWorkers(batches, src, mac, 0)
}

// BuildListsWorkers is BuildLists with an explicit worker bound
// (workers <= 0 selects GOMAXPROCS, 1 is the serial build). Each worker
// owns a contiguous range of batches and reuses one traversal stack across
// them.
func BuildListsWorkers(batches *tree.BatchSet, src *tree.Tree, mac MAC, workers int) *Lists {
	nb := len(batches.Batches)
	ls := &Lists{
		Approx: make([][]int32, nb),
		Direct: make([][]int32, nb),
	}
	if len(src.Nodes) == 0 {
		return ls
	}
	interp := int64(mac.InterpPoints())
	perWorker := make([]Stats, pool.Workers(nb, workers))
	pool.Blocks(nb, workers, func(w, lo, hi int) {
		// Explicit stack to avoid recursion overhead for deep trees,
		// allocated once per worker and reused across its batches.
		stack := make([]int32, 0, 64)
		st := &perWorker[w]
		for bi := lo; bi < hi; bi++ {
			stack = traverseBatch(ls, st, batches, src, mac, interp, bi, stack)
		}
	})
	for i := range perWorker {
		ls.Stats.Add(perWorker[i])
	}
	return ls
}

// traverseBatch walks the source tree for batch bi, appending to the
// batch's lists and accumulating traversal counts into st. The stack is
// the caller's reusable scratch; the (possibly grown) slice is returned
// for the next batch.
func traverseBatch(ls *Lists, st *Stats, batches *tree.BatchSet, src *tree.Tree, mac MAC, interp int64, bi int, stack []int32) []int32 {
	b := &batches.Batches[bi]
	nb := int64(b.Count())
	stack = append(stack[:0], int32(src.Root()))
	for len(stack) > 0 {
		ci := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := &src.Nodes[ci]
		st.MACTests++
		dist := b.Center.Dist(c.Center)
		switch mac.Test(dist, b.Radius, c.Radius, c.Count(), c.IsLeaf()) {
		case Approximate:
			ls.Approx[bi] = append(ls.Approx[bi], ci)
			st.ApproxPairs++
			st.ApproxInteractions += nb * interp
		case Direct:
			ls.Direct[bi] = append(ls.Direct[bi], ci)
			st.DirectPairs++
			st.DirectInteractions += nb * int64(c.Count())
		case Recurse:
			stack = append(stack, c.Children...)
		}
	}
	return stack
}

// PerTargetStats runs the traversal with the MAC applied to each target
// individually (radius 0) instead of to whole batches. It does not
// materialize lists; it only accumulates interaction counts. This is the
// counterfactual for the paper's batching design choice: per-target MACs
// admit slightly fewer interactions but would cause thread divergence on a
// GPU.
func PerTargetStats(batches *tree.BatchSet, src *tree.Tree, mac MAC) Stats {
	var st Stats
	if len(src.Nodes) == 0 {
		return st
	}
	interp := int64(mac.InterpPoints())
	tg := batches.Targets
	for i := 0; i < tg.Len(); i++ {
		p := tg.At(i)
		stack := make([]int32, 1, 64)
		stack[0] = int32(src.Root())
		for len(stack) > 0 {
			ci := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c := &src.Nodes[ci]
			st.MACTests++
			dist := p.Dist(c.Center)
			switch mac.Test(dist, 0, c.Radius, c.Count(), c.IsLeaf()) {
			case Approximate:
				st.ApproxPairs++
				st.ApproxInteractions += interp
			case Direct:
				st.DirectPairs++
				st.DirectInteractions += int64(c.Count())
			case Recurse:
				stack = append(stack, c.Children...)
			}
		}
	}
	return st
}
