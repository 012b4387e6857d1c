package interaction

import (
	"barytree/internal/pool"
	"barytree/internal/tree"
)

// RecheckApproxWorkers re-applies the geometric MAC condition to every
// cached (batch, approximated cluster) pair of ls against the current batch
// and node geometry, and returns the number of pairs that no longer satisfy
// it. This is the validity test of a plan update's refit fast path: after a
// bottom-up box refit the interaction lists are reusable exactly when every
// previously admitted approximation still passes (r_B + r_C) < θ·R with the
// refit radii and center distance. Direct pairs need no recheck (direct
// summation is exact regardless of geometry), and the size half of the MAC
// depends only on particle counts, which a refit does not change.
//
// The count is a sum of per-pair 0/1 outcomes, so it is identical for every
// worker count.
func RecheckApproxWorkers(ls *Lists, batches *tree.BatchSet, src *tree.Tree, mac MAC, workers int) int {
	nb := len(batches.Batches)
	w := pool.Workers(nb, workers)
	cnt := make([]int, w)
	pool.Blocks(nb, workers, func(wi, lo, hi int) {
		c := 0
		for bi := lo; bi < hi; bi++ {
			b := &batches.Batches[bi]
			for _, ci := range ls.Approx[bi] {
				nd := &src.Nodes[ci]
				if !(b.Radius+nd.Radius < mac.Theta*b.Center.Dist(nd.Center)) {
					c++
				}
			}
		}
		cnt[wi] = c
	})
	total := 0
	for _, c := range cnt {
		total += c
	}
	return total
}

// DemoteFailingApprox moves every cached approximation pair that no longer
// passes the geometric MAC from the batch's Approx list to its Direct list
// and returns how many pairs moved. Direct summation is exact for any
// geometry, so demotion restores θ-admissibility of the lists without
// rebuilding them — the list-repair half of a plan update's refit fast
// path, applied when RecheckApproxWorkers finds a vanishing number of
// violations (a handful of marginal pairs flip on almost every real
// update; re-deriving the whole setup phase for them would erase the point
// of refitting). The demoted pairs keep their relative order at the tail
// of the Direct list, batches are independent, and Stats is adjusted by
// exact integer sums, so the result is identical for every worker count.
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
