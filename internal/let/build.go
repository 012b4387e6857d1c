package let

import (
	"fmt"

	"barytree/internal/chebyshev"
	"barytree/internal/interaction"
	"barytree/internal/mpisim"
	"barytree/internal/particle"
	"barytree/internal/trace"
	"barytree/internal/tree"
)

// Windows are the RMA windows one rank exposes for LET construction: its
// serialized tree arrays, its source particles (tree order, interleaved
// x,y,z,q with stride 4), and its cluster charges (node-major, (n+1)^3
// values per node).
type Windows struct {
	Geom      *mpisim.Window[float64]
	Topo      *mpisim.Window[int64]
	Child     *mpisim.Window[int64]
	Particles *mpisim.Window[float64]
	Charges   *mpisim.Window[float64]
	Degree    int
}

// InterleaveParticles flattens a particle set into the stride-4 layout of
// the particle window.
func InterleaveParticles(s *particle.Set) []float64 {
	out := make([]float64, 0, 4*s.Len())
	for i := 0; i < s.Len(); i++ {
		out = append(out, s.X[i], s.Y[i], s.Z[i], s.Q[i])
	}
	return out
}

// FlattenCharges concatenates per-node modified charges node-major. Every
// node must carry exactly (degree+1)^3 values.
func FlattenCharges(qhat [][]float64, degree int) ([]float64, error) {
	np := (degree + 1) * (degree + 1) * (degree + 1)
	out := make([]float64, 0, len(qhat)*np)
	for i, q := range qhat {
		if len(q) != np {
			return nil, fmt.Errorf("let: node %d has %d charges, want %d", i, len(q), np)
		}
		out = append(out, q...)
	}
	return out, nil
}

// Expose collectively creates the five RMA windows from this rank's local
// tree and charge data. Every rank must call it at the same point in its
// execution. The charge slice is shared, not copied, so charges computed
// *before* Expose are visible to remote Gets.
func Expose(r *mpisim.Rank, t *tree.Tree, chargesFlat []float64, degree int) *Windows {
	geomArr, topoArr, childArr := SerializeTree(t)
	// Serialization is charged no modeled time (it is part of the tree
	// build's counted work), so it traces as an instant marker.
	r.Tracer.Span("let.serialize", trace.CatBuild, r.ID(), trace.TrackHost,
		r.Clock.Now(), r.Clock.Now(),
		trace.A("nodes", len(t.Nodes)),
		trace.A("words", len(geomArr)+len(topoArr)+len(childArr)))
	return &Windows{
		Geom:      mpisim.NewWindow(r, geomArr),
		Topo:      mpisim.NewWindow(r, topoArr),
		Child:     mpisim.NewWindow(r, childArr),
		Particles: mpisim.NewWindow(r, InterleaveParticles(t.Particles)),
		Charges:   mpisim.NewWindow(r, chargesFlat),
		Degree:    degree,
	}
}

// LET is one rank's locally essential tree: the remote clusters its target
// batches approximate, the remote leaf particles they interact with
// directly, and the per-batch interaction lists over them.
type LET struct {
	Degree int

	// Fetched remote approximation clusters (flattened interpolation
	// points plus modified charges).
	ClusterPX, ClusterPY, ClusterPZ [][]float64
	ClusterQhat                     [][]float64
	// Source rank and node of each fetched cluster, for diagnostics.
	ClusterHome [][2]int32

	// Fetched remote direct-interaction leaves.
	Leaves   []*particle.Set
	LeafHome [][2]int32

	// Per-local-batch interaction lists indexing the slices above.
	Approx [][]int32
	Direct [][]int32

	// Stats accumulates remote-traversal MAC tests and the interaction
	// volume added by remote data.
	Stats interaction.Stats
}

// Fetch tracks the in-flight bulk-fetch stage of an asynchronously built
// LET: one nonblocking request per fetched cluster charge array and per
// fetched leaf particle block, indexed exactly like the LET's cluster and
// leaf slices. The functional data is already in place when BuildAsync
// returns (Iget copies immediately); Fetch only carries the modeled
// completion times, so waiting is purely a clock operation.
type Fetch struct {
	r       *mpisim.Rank
	cluster []*mpisim.Request // per LET cluster index; nil = nothing issued
	leaf    []*mpisim.Request // per LET leaf index
	issued  float64           // total modeled wire seconds issued
	stalled float64           // total stall seconds paid by waits so far
}

// WaitBatch completes, in modeled time, every request batch bi's remote
// interaction lists depend on. Requests shared with earlier batches are
// already complete and cost nothing; with no remote work for the batch it
// is a no-op.
func (f *Fetch) WaitBatch(l *LET, bi int) {
	for _, li := range l.Approx[bi] {
		if rq := f.cluster[li]; rq != nil && !rq.Done() {
			f.stalled += rq.Wait()
		}
	}
	for _, li := range l.Direct[bi] {
		if rq := f.leaf[li]; rq != nil && !rq.Done() {
			f.stalled += rq.Wait()
		}
	}
}

// WaitAll completes every outstanding request of the fetch (and any other
// nonblocking operation the rank has in flight), advancing the clock to
// the last completion. Calling it after the per-batch waits is a cheap
// no-op that keeps the rank's pending queue drained.
func (f *Fetch) WaitAll() {
	f.stalled += f.r.Flush()
}

// IssuedSeconds returns the total modeled wire time of the bulk fetch —
// what a synchronous fetch would have charged the origin clock inline.
func (f *Fetch) IssuedSeconds() float64 { return f.issued }

// StalledSeconds returns the stall actually paid by waits so far. The
// difference IssuedSeconds() - StalledSeconds() is the communication time
// hidden under whatever the origin did between issue and wait, measured
// from the executed timeline.
func (f *Fetch) StalledSeconds() float64 { return f.stalled }

// remotePlan is the traversal stage's output for one remote rank: its
// deserialized tree and the remote nodes the bulk-fetch stage must pull,
// in first-encounter order.
type remotePlan struct {
	remote                   int
	tree                     *tree.Tree
	approxNodes, directNodes []int32
}

// BuildAsync constructs this rank's LET in two stages. The traversal
// stage fetches every remote rank's tree geometry/topology arrays eagerly
// (synchronous gets — they gate the MAC decisions) and runs the same
// batch/cluster MAC traversal on each remote tree as on the local one
// (interaction.BuildListsWorkers), fixing the interaction lists and the
// first-encounter order of remote clusters and leaves. The bulk-fetch
// stage then issues the direct-leaf particles and cluster charge arrays as
// grouped nonblocking Igets: the functional copies happen immediately, so
// the returned LET is complete as data, while the modeled completions ride
// on the origin's NIC-occupancy timeline inside the returned Fetch. The
// caller chooses the schedule: Fetch.WaitAll right away reproduces the
// serial exchange, per-batch WaitBatch calls interleaved with compute
// pipeline it.
//
// The traversals run on up to `workers` goroutines (<= 0 selects
// GOMAXPROCS) and their lists are byte-identical for every worker count;
// they are merged in batch order, so the LET — including the
// first-encounter ordering of fetched clusters/leaves, the RMA sequence,
// the Stats counters and therefore all modeled times and traces — is
// identical for every worker count.
func BuildAsync(r *mpisim.Rank, wins *Windows, batches *tree.BatchSet, mac interaction.MAC, workers int) (*LET, *Fetch, error) {
	l := &LET{
		Degree: wins.Degree,
		Approx: make([][]int32, len(batches.Batches)),
		Direct: make([][]int32, len(batches.Batches)),
	}
	f := &Fetch{r: r}
	np := mac.InterpPoints()
	buildStart := r.Clock.Now()
	var plans []remotePlan
	nClusters, nLeaves := 0, 0

	// --- Stage 1: eager tree fetch + MAC traversal per remote rank. ---
	for remote := 0; remote < r.Size(); remote++ {
		if remote == r.ID() {
			continue
		}
		geomArr := wins.Geom.GetAll(r, remote)
		topoArr := wins.Topo.GetAll(r, remote)
		childArr := wins.Child.GetAll(r, remote)
		t, err := Deserialize(geomArr, topoArr, childArr)
		if err != nil {
			return nil, nil, fmt.Errorf("let: rank %d decoding rank %d tree: %w", r.ID(), remote, err)
		}
		lists := interaction.BuildListsWorkers(batches, t, mac, workers)
		plan := remotePlan{
			remote:      remote,
			tree:        t,
			approxNodes: mergeFirstEncounter(l.Approx, lists.Approx, len(t.Nodes), nClusters),
			directNodes: mergeFirstEncounter(l.Direct, lists.Direct, len(t.Nodes), nLeaves),
		}
		l.Stats.Add(lists.Stats)
		nClusters += len(plan.approxNodes)
		nLeaves += len(plan.directNodes)
		plans = append(plans, plan)
	}

	// --- Stage 2: grouped nonblocking bulk fetch of charges + particles. ---
	f.cluster = make([]*mpisim.Request, 0, nClusters)
	f.leaf = make([]*mpisim.Request, 0, nLeaves)
	for _, plan := range plans {
		remote, nodes := plan.remote, plan.tree.Nodes
		if len(plan.approxNodes) > 0 {
			epochStart := r.Clock.Now()
			wins.Charges.Lock(remote)
			for _, ci := range plan.approxNodes {
				qhat := make([]float64, np)
				rq := wins.Charges.Iget(r, remote, int(ci)*np, qhat)
				f.cluster = append(f.cluster, rq)
				f.issued += rq.Duration()
				g := chebyshev.NewGrid3D(wins.Degree, nodes[ci].Box)
				px, py, pz := g.FlattenedPoints()
				l.ClusterPX = append(l.ClusterPX, px)
				l.ClusterPY = append(l.ClusterPY, py)
				l.ClusterPZ = append(l.ClusterPZ, pz)
				l.ClusterQhat = append(l.ClusterQhat, qhat)
				l.ClusterHome = append(l.ClusterHome, [2]int32{int32(remote), ci})
			}
			wins.Charges.Unlock(remote)
			r.Tracer.Span("rma.epoch", trace.CatComm, r.ID(), trace.TrackNet,
				epochStart, r.Clock.Now(),
				trace.A("target", remote), trace.A("ops", len(plan.approxNodes)))
		}
		if len(plan.directNodes) > 0 {
			epochStart := r.Clock.Now()
			wins.Particles.Lock(remote)
			for _, ci := range plan.directNodes {
				count := nodes[ci].Count()
				buf := make([]float64, 4*count)
				rq := wins.Particles.Iget(r, remote, nodes[ci].Lo*4, buf)
				f.leaf = append(f.leaf, rq)
				f.issued += rq.Duration()
				set := particle.NewSet(count)
				for j := 0; j < count; j++ {
					set.Append(buf[4*j], buf[4*j+1], buf[4*j+2], buf[4*j+3])
				}
				l.Leaves = append(l.Leaves, set)
				l.LeafHome = append(l.LeafHome, [2]int32{int32(remote), ci})
			}
			wins.Particles.Unlock(remote)
			r.Tracer.Span("rma.epoch", trace.CatComm, r.ID(), trace.TrackNet,
				epochStart, r.Clock.Now(),
				trace.A("target", remote), trace.A("ops", len(plan.directNodes)))
		}
	}

	r.Tracer.Span("let.build", trace.CatBuild, r.ID(), trace.TrackHost,
		buildStart, r.Clock.Now(),
		trace.A("clusters", len(l.ClusterQhat)), trace.A("leaves", len(l.Leaves)),
		trace.A("bytes", l.Bytes()), trace.A("mac_tests", l.Stats.MACTests))
	r.Tracer.Add("let.clusters", float64(len(l.ClusterQhat)))
	r.Tracer.Add("let.leaves", float64(len(l.Leaves)))
	r.Tracer.Add("let.bytes", float64(l.Bytes()))
	return l, f, nil
}

// mergeFirstEncounter appends to dst[bi] the LET index of every remote node
// on lists[bi], numbering the remote tree's nodes from base in order of
// first encounter over the batches, and returns the remote nodes in that
// order: the ones the bulk fetch must pull, each once however many
// batches read it.
func mergeFirstEncounter(dst, lists [][]int32, remoteNodes, base int) []int32 {
	index := make([]int32, remoteNodes) // remote node -> LET index + 1; 0 until first seen
	var nodes []int32
	for bi, list := range lists {
		for _, ci := range list {
			if index[ci] == 0 {
				nodes = append(nodes, ci)
				index[ci] = int32(base + len(nodes))
			}
			dst[bi] = append(dst[bi], index[ci]-1)
		}
	}
	return nodes
}

// Bytes returns the approximate size of the LET's fetched payload (cluster
// charges plus particles), i.e. the HtD volume the compute phase must copy
// in addition to local data.
func (l *LET) Bytes() int64 {
	var n int64
	for _, q := range l.ClusterQhat {
		n += int64(len(q)) * 8
	}
	for _, s := range l.Leaves {
		n += int64(s.Len()) * 4 * 8
	}
	return n
}
