package core

import (
	"fmt"
	"sort"

	"barytree/internal/kernel"
	"barytree/internal/pool"
)

// EvaluateSampled functionally evaluates the treecode potential only at the
// given target indices (in the caller's original target ordering) with the
// charges of st, and returns the potentials in sample order.
//
// This is the mechanism that lets the benchmark harness reproduce the
// paper's experiments at full problem size on a laptop: the tree, batches
// and interaction lists are built for the complete system (so every work
// counter feeding the performance model is exact), while kernel evaluations
// — the O(N log N) bulk — run only for a sampled subset of targets, exactly
// mirroring how the paper samples its error measurement for systems of 8M
// particles and more. Modified charges are computed lazily into st, only
// for clusters that appear on a sampled batch's interaction list, and
// those they are charged from, that are not yet charged, so a state
// reused across calls (and across plans that share the plan's Sources and
// Clusters) charges each cluster once. The plan is only read: concurrent
// calls with distinct states are safe.
func EvaluateSampled(pl *Plan, k kernel.Kernel, st *ChargeState, sample []int) ([]float64, error) {
	st.checkGen(pl)
	nTargets := pl.Batches.Targets.Len()
	inv := pl.Batches.Perm.Inverse() // original index -> batch order index
	// Locate the batch of every sampled target, and charge the clusters on
	// those batches' approx lists.
	batchOf := make([]int, len(sample))
	need := make([]bool, len(pl.Sources.Nodes))
	for i, orig := range sample {
		if orig < 0 || orig >= nTargets {
			return nil, fmt.Errorf("core: sample index %d out of range [0,%d)", orig, nTargets)
		}
		bi := findBatch(pl, inv[orig])
		if bi < 0 {
			return nil, fmt.Errorf("core: no batch contains target %d", orig)
		}
		batchOf[i] = bi
		for _, ci := range pl.Lists.Approx[bi] {
			need[ci] = true
		}
	}
	st.chargeNodes(pl, need, 0)

	// Evaluate the sampled targets through the kernel's tiles (resolved
	// once). Samples are sorted by batch, and each run of samples sharing
	// a batch is gathered and walks its interaction list together, widest
	// tile first, streaming each source block once per group. Every
	// sample's potential is accumulated from zero in list order whatever
	// its group's width, so for exact kernels neither the grouping nor
	// where the worker split cuts a run can change bits.
	tiles := kernel.Tiles(k)
	phi := make([]float64, len(sample))
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	cd := pl.Clusters
	q, qhat := st.Q, st.Qhat
	order := make([]int, len(sample))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return batchOf[order[a]] < batchOf[order[b]] })
	pool.Blocks(len(order), 0, func(_, lo, hi int) {
		n := hi - lo
		tx, ty, tz, acc := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for s := range acc {
			ti := inv[sample[order[lo+s]]]
			tx[s], ty[s], tz[s] = tg.X[ti], tg.Y[ti], tg.Z[ti]
		}
		for r := 0; r < n; {
			bi := batchOf[order[lo+r]]
			g := r + 1
			for g < n && batchOf[order[lo+g]] == bi {
				g++
			}
			direct, approx := pl.Lists.Direct[bi], pl.Lists.Approx[bi]
			kernel.Cascade(tiles, r, g, func(tile kernel.Tile, i, j int) {
				for _, ci := range direct {
					nd := &pl.Sources.Nodes[ci]
					tile(tx[i:j], ty[i:j], tz[i:j], src.X[nd.Lo:nd.Hi], src.Y[nd.Lo:nd.Hi], src.Z[nd.Lo:nd.Hi], q[nd.Lo:nd.Hi], acc[i:j])
				}
				for _, ci := range approx {
					tile(tx[i:j], ty[i:j], tz[i:j], cd.PX[ci], cd.PY[ci], cd.PZ[ci], qhat[ci], acc[i:j])
				}
			})
			r = g
		}
		for s, v := range acc {
			phi[order[lo+s]] = v
		}
	})
	return phi, nil
}

// findBatch returns the index of the batch whose [Lo, Hi) range contains
// batch-order target index ti, using binary search over the (sorted,
// contiguous) batch ranges.
func findBatch(pl *Plan, ti int) int {
	bs := pl.Batches.Batches
	lo, hi := 0, len(bs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ti < bs[mid].Lo:
			hi = mid
		case ti >= bs[mid].Hi:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}
