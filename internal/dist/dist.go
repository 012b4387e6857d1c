// Package dist is the distributed-memory multi-GPU driver of the BLTC,
// combining every substrate exactly as the paper's Section 3 does:
// recursive coordinate bisection assigns particles to ranks (one rank per
// GPU); each rank builds a local source tree and target batches, computes
// its clusters' modified charges on its device, exposes tree arrays,
// particles and charges through one-sided RMA windows, pulls the locally
// essential tree from every remote rank, and evaluates its local targets'
// potentials on its device.
//
// Phase accounting follows the paper's Section 4: *setup* is the domain
// decomposition, local tree/batch construction, LET construction and
// communication, and interaction-list creation; *precompute* is the
// modified-charge kernels; *compute* is the potential evaluation. Each
// phase's distributed duration is the maximum over ranks (phases are
// barrier-separated), and the run time is the sum over phases.
package dist

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"barytree/internal/core"
	"barytree/internal/device"
	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/let"
	"barytree/internal/mpisim"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/rcb"
	"barytree/internal/trace"
	"barytree/internal/tree"
)

// Config configures a distributed run.
type Config struct {
	// Ranks is the number of MPI ranks; the paper associates one rank with
	// each GPU.
	Ranks  int
	Params core.Params
	// GPU is the per-rank device model (zero value: P100, the paper's
	// scaling testbed).
	GPU perfmodel.GPUSpec
	// CPU is the host model per rank (zero value: Xeon X5650).
	CPU perfmodel.CPUSpec
	// Net is the interconnect model (zero value: Comet InfiniBand).
	Net perfmodel.NetworkSpec
	// WorkersPerRank bounds the host goroutines each rank uses for
	// functional execution and for its setup phase (tree/batch/cluster
	// construction, LET traversal, interaction lists); 0 divides
	// GOMAXPROCS evenly across ranks for setup and selects GOMAXPROCS for
	// device execution. Setup output is bit-identical for every value.
	WorkersPerRank int
	// Streams overrides the per-device stream count (0: device default).
	Streams int
	// ModelOnly skips functional kernel execution (timing model only);
	// Result.Phi is nil.
	ModelOnly bool
	// OverlapComm enables the paper's future-work extension of overlapping
	// LET communication with computation, as an actually executed pipelined
	// schedule: the LET bulk fetch is issued as nonblocking gets on the
	// rank's NIC-occupancy timeline, interaction-list construction and the
	// local-list batch kernels proceed while the data is in flight, and each
	// batch waits only on its own requests before launching its remote-list
	// kernels. Kernel submission order — and therefore Result.Phi — is
	// bit-identical with and without overlap; only the modeled times move.
	OverlapComm bool
	// Precision selects fp64 or fp32 potential kernels.
	Precision device.Precision
	// Tracer, when non-nil, records every rank's phase/build spans, kernel
	// and transfer spans, RMA operations and counters. The tracer is
	// shared across rank goroutines (it is internally synchronized) and
	// never changes modeled times.
	Tracer *trace.Tracer
}

func (c *Config) defaults() error {
	if c.Ranks < 1 {
		return fmt.Errorf("dist: ranks must be >= 1, got %d", c.Ranks)
	}
	if c.WorkersPerRank < 0 {
		return fmt.Errorf("dist: workers per rank must be >= 0, got %d", c.WorkersPerRank)
	}
	if c.Streams < 0 {
		return fmt.Errorf("dist: streams must be >= 0, got %d", c.Streams)
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.GPU.SMs == 0 {
		c.GPU = perfmodel.P100()
	}
	if c.CPU.Cores == 0 {
		c.CPU = perfmodel.XeonX5650()
	}
	if c.Net.Bandwidth == 0 {
		c.Net = perfmodel.CometIB()
	}
	return nil
}

// RankReport is one rank's contribution to the run.
type RankReport struct {
	Times       perfmodel.PhaseTimes
	Particles   int
	TreeNodes   int
	Batches     int
	Local       interaction.Stats
	Remote      interaction.Stats
	Comm        mpisim.CommStats
	LETClusters int
	LETLeaves   int
	LETBytes    int64
	// CommTime is the modeled seconds this rank's clock advanced inside RMA
	// operations (synchronous transfers plus wait stalls), from the rank's
	// CommStats.RMASeconds counter. Wire time hidden under overlapped work
	// is not included.
	CommTime float64
	// LETTraversalTime is the modeled host seconds spent MAC-traversing
	// remote trees during LET construction, from the LET's MACTests counter.
	// It was previously folded into CommTime.
	LETTraversalTime float64
	// OverlapSaved is the communication wire time hidden under other work
	// by OverlapComm, measured from the executed timeline: seconds of
	// bulk-fetch occupancy issued minus stall seconds actually paid at
	// waits. Exactly zero when OverlapComm is off.
	OverlapSaved float64
}

// Result is the outcome of a distributed run.
type Result struct {
	// Phi holds potentials in the input particle order (nil if ModelOnly).
	Phi []float64
	// Times is the distributed phase profile: per-phase max over ranks.
	Times perfmodel.PhaseTimes
	// Ranks holds each rank's report.
	Ranks []RankReport
}

// TotalInteractions sums local and remote kernel evaluations over ranks.
func (r *Result) TotalInteractions() int64 {
	var t int64
	for i := range r.Ranks {
		t += r.Ranks[i].Local.TotalInteractions() + r.Ranks[i].Remote.TotalInteractions()
	}
	return t
}

// Run evaluates the potentials of pts (targets == sources, as in all of the
// paper's experiments) on cfg.Ranks simulated GPUs.
func Run(cfg Config, k kernel.Kernel, pts *particle.Set) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if err := pts.Validate(); err != nil {
		return nil, fmt.Errorf("dist: bad particles: %w", err)
	}
	// Domain decomposition (the paper calls Zoltan here). The
	// decomposition is computed once and its parallel cost modeled per
	// rank: each bisection level scans the rank's particles once.
	dec := rcb.Partition(pts, cfg.Ranks, pts.Bounds())
	rcbLevels := math.Ceil(math.Log2(float64(cfg.Ranks)))

	res := &Result{Ranks: make([]RankReport, cfg.Ranks)}
	if !cfg.ModelOnly {
		res.Phi = make([]float64, pts.Len())
	}
	var phiMu sync.Mutex

	err := mpisim.Run(cfg.Ranks, cfg.Net, func(r *mpisim.Rank) error {
		rep := &res.Ranks[r.ID()]
		local, orig := dec.Extract(pts, r.ID())
		rep.Particles = local.Len()
		tr := cfg.Tracer
		r.Tracer = tr
		dev := device.New(cfg.GPU, cfg.WorkersPerRank)
		dev.Precision = cfg.Precision
		dev.Tracer = tr
		dev.Rank = r.ID()
		hc := &r.Clock
		mac := cfg.Params.MAC()
		// Host goroutines for this rank's setup phase. Rank goroutines run
		// concurrently, so the default splits the machine across ranks
		// instead of oversubscribing it Ranks-fold. Setup output is
		// bit-identical for every worker count, so this only affects wall
		// time.
		setupW := cfg.WorkersPerRank
		if setupW <= 0 {
			setupW = max(1, runtime.GOMAXPROCS(0)/cfg.Ranks)
		}

		// --- Setup (part 1): RCB + local tree and batches. ---
		hc.Advance(float64(local.Len()) * rcbLevels / cfg.CPU.TreeOpRate)
		rcbEnd := hc.Now()
		tr.Span("rcb", trace.CatBuild, r.ID(), trace.TrackHost, 0, rcbEnd,
			trace.A("particles", local.Len()), trace.A("levels", int(rcbLevels)))
		t := tree.BuildWorkers(local, cfg.Params.LeafSize, setupW)
		var batches *tree.BatchSet
		if cfg.Params.BatchSize == cfg.Params.LeafSize {
			// A rank's targets are its sources: their tree at BatchSize
			// would be t again, so its leaves are the batches.
			batches = tree.BatchSetFromTree(t)
		} else {
			batches = tree.BuildBatchesWorkers(local, cfg.Params.BatchSize, setupW)
		}
		cd := core.NewClusterDataWorkers(t, cfg.Params.Degree, setupW)
		treeOps := float64(t.Stats.ParticleScans + t.Stats.ParticleMoves +
			batches.Stats.ParticleScans + batches.Stats.ParticleMoves)
		hc.Advance(treeOps / cfg.CPU.TreeOpRate)
		rep.TreeNodes = len(t.Nodes)
		rep.Batches = len(batches.Batches)
		setup1 := hc.Now()
		if tr.Enabled() {
			treeT := float64(t.Stats.ParticleScans+t.Stats.ParticleMoves) / cfg.CPU.TreeOpRate
			t.Stats.TraceSpan(tr, "tree.build", r.ID(), rcbEnd, rcbEnd+treeT)
			batches.Stats.TraceSpan(tr, "batches.build", r.ID(), rcbEnd+treeT, setup1)
		}

		// --- Precompute: modified charges on the device. ---
		dev.BeginPhase(hc.Now())
		copyDone := dev.CopyIn(hc.Now(), 4*8*int64(local.Len()))
		core.LaunchChargeKernels(cd, t, dev, hc, copyDone, cfg.Streams, cfg.ModelOnly)
		hc.AdvanceTo(dev.Drain())
		hc.AdvanceTo(dev.CopyOut(hc.Now(), cd.ChargesBytes()))
		precompute := hc.Now() - setup1
		tr.Span("precompute", trace.CatPhase, r.ID(), trace.TrackHost, setup1, hc.Now())

		// --- Setup (part 2): windows, LET, interaction lists. ---
		np := mac.InterpPoints()
		var chargesFlat []float64
		if cfg.ModelOnly {
			chargesFlat = make([]float64, len(t.Nodes)*np)
		} else {
			var err error
			chargesFlat, err = let.FlattenCharges(cd.Qhat, cfg.Params.Degree)
			if err != nil {
				return err
			}
		}
		wins := let.Expose(r, t, chargesFlat, cfg.Params.Degree)
		r.Barrier() // all charges exposed before anyone gets them

		getsBefore := r.Stats.GetBytes
		rmaBefore := r.Stats.RMASeconds
		l, fetch, err := let.BuildAsync(r, wins, batches, mac, setupW)
		if err != nil {
			return err
		}
		if !cfg.OverlapComm {
			// Serial schedule: complete the bulk fetch before anything
			// else. The NIC timeline serializes the grouped gets at link
			// bandwidth, so this costs the same modeled seconds as the
			// pre-pipelining synchronous exchange.
			fetch.WaitAll()
		}
		rep.LETClusters = len(l.ClusterQhat)
		rep.LETLeaves = len(l.Leaves)
		rep.LETBytes = r.Stats.GetBytes - getsBefore
		rep.LETTraversalTime = float64(l.Stats.MACTests) / cfg.CPU.MACTestRate
		hc.Advance(rep.LETTraversalTime)

		listsStart := hc.Now()
		lists := interaction.BuildListsWorkers(batches, t, mac, cfg.WorkersPerRank)
		hc.Advance(float64(lists.Stats.MACTests) / cfg.CPU.MACTestRate)
		rep.Local = lists.Stats
		rep.Remote = l.Stats
		setup2 := hc.Now() - setup1 - precompute
		if tr.Enabled() {
			tr.Span("lists.build", trace.CatBuild, r.ID(), trace.TrackHost, listsStart, hc.Now(),
				trace.A("mac_tests", lists.Stats.MACTests),
				trace.A("direct_pairs", lists.Stats.DirectPairs),
				trace.A("approx_pairs", lists.Stats.ApproxPairs))
			// The setup phase is split around the device precompute: part 1
			// is RCB + local construction, part 2 is windows/LET/lists.
			tr.Span("setup", trace.CatPhase, r.ID(), trace.TrackHost, 0, setup1)
			tr.Span("setup", trace.CatPhase, r.ID(), trace.TrackHost, setup1+precompute, hc.Now())
		}

		// --- Compute: local + LET interaction lists on the device. ---
		computeStart := hc.Now()
		dev.BeginPhase(hc.Now())
		nTg := int64(local.Len())
		copyDone = dev.CopyIn(hc.Now(), 3*8*nTg+l.Bytes())
		var phi *device.AccumBuffer
		if !cfg.ModelOnly {
			phi = device.NewAccumBuffer(int(nTg))
		}
		ln := core.NewLauncher(dev, hc, k, cfg.Streams, false, cfg.Precision, cfg.ModelOnly, copyDone)
		tg := batches.Targets
		src := t.Particles
		for bi := range batches.Batches {
			b := &batches.Batches[bi]
			for _, ci := range lists.Direct[bi] {
				nd := &t.Nodes[ci]
				ln.LaunchDirect(tg, b.Lo, b.Count(), src, nd.Lo, nd.Hi, phi)
			}
			for _, ci := range lists.Approx[bi] {
				ln.LaunchApprox(tg, b.Lo, b.Count(), cd.PX[ci], cd.PY[ci], cd.PZ[ci], cd.Qhat[ci], phi)
			}
			if cfg.OverlapComm {
				// Pipelined schedule: the local-list launches above needed
				// no remote data and ran with the bulk fetch still in
				// flight; complete just this batch's LET requests before
				// its remote-list launches. Requests shared with earlier
				// batches are already done; stalls shrink as the fetch
				// progressively completes under compute. The launch call
				// sequence is identical to the serial schedule, so the
				// functional accumulation order — and Phi — is unchanged.
				fetch.WaitBatch(l, bi)
			}
			for _, li := range l.Direct[bi] {
				leaf := l.Leaves[li]
				ln.LaunchDirect(tg, b.Lo, b.Count(), leaf, 0, leaf.Len(), phi)
			}
			for _, li := range l.Approx[bi] {
				ln.LaunchApprox(tg, b.Lo, b.Count(),
					l.ClusterPX[li], l.ClusterPY[li], l.ClusterPZ[li], l.ClusterQhat[li], phi)
			}
		}
		fetch.WaitAll() // drain any LET requests no batch referenced
		hc.AdvanceTo(dev.Drain())
		hc.AdvanceTo(dev.CopyOut(hc.Now(), 8*nTg))
		compute := hc.Now() - computeStart
		tr.Span("compute", trace.CatPhase, r.ID(), trace.TrackHost, computeStart, hc.Now())

		rep.Times[perfmodel.PhaseSetup] = setup1 + setup2
		rep.Times[perfmodel.PhasePrecompute] = precompute
		rep.Times[perfmodel.PhaseCompute] = compute
		rep.Comm = r.Stats
		rep.CommTime = r.Stats.RMASeconds - rmaBefore
		// Overlap win, measured from the executed timeline: wire seconds
		// the bulk fetch occupied the NIC minus the stall seconds actually
		// paid waiting on it. Zero by construction on the serial schedule
		// (WaitAll immediately after issue pays every second).
		rep.OverlapSaved = fetch.IssuedSeconds() - fetch.StalledSeconds()

		// Scatter local potentials into the global result. The batch
		// permutation maps batch order back to local-partition order;
		// orig maps local-partition order to input order.
		if !cfg.ModelOnly {
			vals := phi.Values()
			localPhi := make([]float64, len(vals))
			batches.Perm.ScatterInto(localPhi, vals)
			phiMu.Lock()
			for i, o := range orig {
				res.Phi[o] = localPhi[i]
			}
			phiMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range res.Ranks {
		res.Times = res.Times.Max(res.Ranks[i].Times)
	}
	return res, nil
}
