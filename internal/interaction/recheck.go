package interaction

import (
	"barytree/internal/pool"
	"barytree/internal/tree"
)

// DemoteFailingApprox re-applies the geometric MAC, (r_B + r_C) < θ·R
// with the current batch and node radii and center distance, to every
// cached (batch, approximated cluster) pair of ls, moves each pair that
// fails it from the batch's Approx list to its Direct list, and returns
// how many pairs moved. It is both halves of a plan update's refit fast
// path in one pass. The count is the validity test: after a bottom-up box
// refit the lists are reusable when a vanishing number of pairs fail (a
// handful of marginal pairs flip on almost every real update; re-deriving
// the whole setup phase for them would erase the point of refitting). The
// demotion is the list repair: direct summation is exact for any
// geometry, so it restores θ-admissibility without rebuilding the lists.
// Direct pairs need no check, and the size half of the MAC depends only on
// particle counts, which a refit does not change. The demoted pairs keep
// their relative order at the tail of the Direct list, batches are
// independent, and Stats is adjusted by exact integer sums, so the lists
// and the count are identical for every worker count.
//
// Demotion is conservative: a fresh build might have split the cluster and
// approximated its children, and a pair stays direct even if later drift
// makes it admissible again. The next repair or rebuild re-derives the
// lists from scratch and resets both effects.
func DemoteFailingApprox(ls *Lists, batches *tree.BatchSet, src *tree.Tree, mac MAC, workers int) int {
	nb := len(batches.Batches)
	ip := int64(mac.InterpPoints())
	w := pool.Workers(nb, workers)
	delta := make([]Stats, w)
	pool.Blocks(nb, workers, func(wi, lo, hi int) {
		var d Stats
		for bi := lo; bi < hi; bi++ {
			b := &batches.Batches[bi]
			keep := ls.Approx[bi][:0]
			for _, ci := range ls.Approx[bi] {
				nd := &src.Nodes[ci]
				if b.Radius+nd.Radius < mac.Theta*b.Center.Dist(nd.Center) {
					keep = append(keep, ci)
					continue
				}
				ls.Direct[bi] = append(ls.Direct[bi], ci)
				d.ApproxPairs--
				d.DirectPairs++
				d.ApproxInteractions -= int64(b.Count()) * ip
				d.DirectInteractions += int64(b.Count()) * int64(nd.Count())
			}
			ls.Approx[bi] = keep
		}
		delta[wi] = d
	})
	moved := 0
	for _, d := range delta {
		ls.Stats.Add(d)
		moved += d.DirectPairs
	}
	return moved
}
