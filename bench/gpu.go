package bench

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"barytree/internal/core"
	"barytree/internal/device"
	"barytree/internal/dist"
	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/let"
	"barytree/internal/mpisim"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/rcb"
	"barytree/internal/tree"
)

var gpu4Rank = Workload{
	Name: "gpu-4rank-32k",
	Why:  "The paper's multi-GPU path: RCB, the LET over simulated RMA and the functional device launcher, with the paper's modeled times beside the wall clock.",
	run:  runGPU,
}

func runGPU(o Options, r *Run) error {
	n, setupReps := 32_000, 41
	params := core.Params{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: 1000}
	if o.Quick {
		n, setupReps, params.LeafSize, params.BatchSize = 8000, 2, 250, 250
	}
	// The configuration barytree.SolveDistributed builds for P100 ranks,
	// with the model defaults spelled out so the split run below uses the
	// same values.
	cfg := dist.Config{
		Ranks: 4, Params: params, GPU: perfmodel.P100(), CPU: perfmodel.XeonX5650(),
		Net: perfmodel.CometIB(), OverlapComm: true,
	}
	k := kernel.Yukawa{Kappa: 0.5}
	pts := particle.UniformCube(n, rngFor(o.Seed, r.Workload+"/geometry"))
	qrng := rngFor(o.Seed, r.Workload+"/charges")
	ref := &reference{k: k, targets: pts, sources: pts, rng: rngFor(o.Seed, r.Workload+"/sample")}
	r.Params = map[string]any{
		"particles": n, "ranks": cfg.Ranks, "gpu": "P100", "overlap_comm": cfg.OverlapComm, "kernel": k.Name(),
		"theta": params.Theta, "degree": params.Degree, "leaf_size": params.LeafSize,
		"batch_size": params.BatchSize, "setup_reps": setupReps, "sampled_targets": sampledTargets,
	}
	withCharges := func(q []float64) *particle.Set { return &particle.Set{X: pts.X, Y: pts.Y, Z: pts.Z, Q: q} }

	// Set-up: every solve is one-shot, so the set-up measured is the same
	// distributed run with kernel execution off — decomposition, local
	// trees, grids, LET exchange and lists, with the kernels only modeled.
	setupCfg := cfg
	setupCfg.ModelOnly = true
	ls := series{}
	for i := 0; i < setupReps; i++ {
		if o.Trace {
			root := r.spans.Begin("setup", -1, i, 0)
			if _, _, err := splitDistRun(setupCfg, k, pts, r.spans, root, i, ls); err != nil {
				return err
			}
			ls.add("setup", r.spans.End(root))
			continue
		}
		sec, _, err := measure(func() error {
			_, err := dist.Run(setupCfg, k, pts)
			return err
		})
		if err != nil {
			return err
		}
		ls.add("setup", sec)
	}

	solve := func(q []float64) (res *dist.Result, sec, mb float64, err error) {
		sec, mb, err = measure(func() (err error) {
			res, err = dist.Run(cfg, k, withCharges(q))
			return err
		})
		return res, sec, mb, err
	}
	first, _, _, err := solve(signedCharges(qrng, n)) // warm-up
	if err != nil {
		return err
	}
	op := setupReps
	var counts workCounts
	err = window(o.Seconds, 3, func(int) error {
		q := signedCharges(qrng, n)
		res, sec, mb, err := solve(q)
		if err != nil {
			return err
		}
		ls.add("untraced", sec)
		ls.add("alloc", mb)
		phi := res.Phi
		if o.Trace {
			root := r.spans.Begin("op", -1, op, 0)
			if phi, counts, err = splitDistRun(cfg, k, withCharges(q), r.spans, root, op, ls); err != nil {
				return err
			}
			ls.add("op", r.spans.End(root))
			op++
		}
		problem := ref.check(q, phi)
		switch {
		case problem != "":
		case !sameBits(phi, res.Phi):
			problem = "split distributed run differs from dist.Run"
		case res.Times != first.Times:
			problem = fmt.Sprintf("bench bug: modeled times changed between solves of one geometry (%v, then %v)", first.Times, res.Times)
		}
		r.checked(problem)
		return nil
	})
	if err != nil {
		return err
	}
	if o.Trace {
		for _, name := range []string{"rcb", "extract", "let"} {
			r.detail(name+"_s", "s", ls.median(name), len(ls[name]))
		}
		layerMetrics(r, ls, counts)
		return nil
	}

	r.metric("setup_s", ls.median("setup"), len(ls["setup"]))
	r.metric("op_s", ls.median("untraced"), len(ls["untraced"]))
	r.metric("alloc_mb_per_op", ls.median("alloc"), len(ls["alloc"]))
	r.metric("accuracy_digits", ref.digits(), len(ls["untraced"]))
	r.detail("modeled_s", "modeled_s", first.Times.Total(), 1)
	r.detail("modeled_setup_s", "modeled_s", first.Times[perfmodel.PhaseSetup], 1)
	r.detail("modeled_precompute_s", "modeled_s", first.Times[perfmodel.PhasePrecompute], 1)
	r.detail("modeled_compute_s", "modeled_s", first.Times[perfmodel.PhaseCompute], 1)
	var letBytes, igets, local, remote float64
	var comm, saved float64
	for _, rk := range first.Ranks {
		letBytes += float64(rk.LETBytes)
		igets += float64(rk.Comm.IGets)
		local += float64(rk.Local.DirectPairs + rk.Local.ApproxPairs)
		remote += float64(rk.Remote.DirectPairs + rk.Remote.ApproxPairs)
		comm = math.Max(comm, rk.CommTime)
		saved = math.Max(saved, rk.OverlapSaved)
	}
	r.detail("let_mb", "MB", letBytes/1e6, 1)
	r.detail("rma_igets", "count", igets, 1)
	r.detail("local_pairs", "count", local, 1)
	r.detail("remote_pairs", "count", remote, 1)
	r.detail("comm_modeled_s", "modeled_s", comm, 1)
	r.detail("overlap_saved_s", "modeled_s", saved, 1)
	tail(r, "op", ls["untraced"])
	return nil
}

// distLayers are the layers of one rank of the split distributed run, in
// execution order.
var distLayers = []string{"extract", "tree", "batches", "grids", "charges", "let", "lists", "compute", "scatter"}

// rankOut is one rank's share of a split distributed run: its layer times
// (indexed like distLayers) and work counts.
type rankOut struct {
	dur          []float64
	chargeFlops  float64
	interactions float64
	stats        interaction.Stats // local plus remote lists
	read         []bool            // nodes read by a local approximation
	fetched      [][2]int32        // (home rank, node) of every cluster fetched
}

// splitDistRun is dist.Run with every rank's work split into one call per
// layer, each timed in a span on that rank's track. It repeats dist.Run's
// computation call for call, model clock included (its trace spans and rank
// reports left out), so the potentials must come out byte-identical; the
// caller checks that they do. It adds to ls the rcb time and, per layer, the
// mean over ranks, and returns the potentials (none with cfg.ModelOnly)
// and the run's work counts.
func splitDistRun(cfg dist.Config, k kernel.Kernel, pts *particle.Set, rec *Recorder, parent, op int, ls series) ([]float64, workCounts, error) {
	var dec *rcb.Decomposition
	ls.add("rcb", rec.Time("rcb", parent, op, 0, func() { dec = rcb.Partition(pts, cfg.Ranks, pts.Bounds()) }))
	rcbLevels := math.Ceil(math.Log2(float64(cfg.Ranks)))
	var phi []float64
	if !cfg.ModelOnly {
		phi = make([]float64, pts.Len())
	}
	var phiMu sync.Mutex
	ranks := make([]rankOut, cfg.Ranks)

	err := mpisim.Run(cfg.Ranks, cfg.Net, func(r *mpisim.Rank) error {
		out := &ranks[r.ID()]
		out.dur = make([]float64, len(distLayers))
		layer := func(i int, f func()) { out.dur[i] += rec.Time(distLayers[i], parent, op, 1+r.ID(), f) }
		var (
			local   *particle.Set
			orig    []int
			t       *tree.Tree
			batches *tree.BatchSet
			cd      *core.ClusterData
		)
		layer(0, func() { local, orig = dec.Extract(pts, r.ID()) })
		dev := device.New(cfg.GPU, cfg.WorkersPerRank)
		dev.Precision = cfg.Precision
		hc := &r.Clock
		mac := cfg.Params.MAC()
		setupW := cfg.WorkersPerRank
		if setupW <= 0 {
			setupW = max(1, runtime.GOMAXPROCS(0)/cfg.Ranks)
		}
		hc.Advance(float64(local.Len()) * rcbLevels / cfg.CPU.TreeOpRate)
		layer(1, func() { t = tree.BuildWorkers(local, cfg.Params.LeafSize, setupW) })
		layer(2, func() { batches = tree.BuildBatchesWorkers(local, cfg.Params.BatchSize, setupW) })
		layer(3, func() { cd = core.NewClusterDataWorkers(t, cfg.Params.Degree, setupW) })
		treeOps := float64(t.Stats.ParticleScans + t.Stats.ParticleMoves +
			batches.Stats.ParticleScans + batches.Stats.ParticleMoves)
		hc.Advance(treeOps / cfg.CPU.TreeOpRate)

		layer(4, func() {
			dev.BeginPhase(hc.Now())
			copyDone := dev.CopyIn(hc.Now(), 4*8*int64(local.Len()))
			core.LaunchChargeKernels(cd, t, dev, hc, copyDone, cfg.Streams, cfg.ModelOnly)
			hc.AdvanceTo(dev.Drain())
			hc.AdvanceTo(dev.CopyOut(hc.Now(), cd.ChargesBytes()))
		})

		var (
			l     *let.LET
			fetch *let.Fetch
			err   error
		)
		layer(5, func() {
			chargesFlat := make([]float64, len(t.Nodes)*mac.InterpPoints())
			if !cfg.ModelOnly {
				if chargesFlat, err = let.FlattenCharges(cd.Qhat, cfg.Params.Degree); err != nil {
					return
				}
			}
			wins := let.Expose(r, t, chargesFlat, cfg.Params.Degree)
			r.Barrier()
			if l, fetch, err = let.BuildAsync(r, wins, batches, mac, setupW); err != nil {
				return
			}
			if !cfg.OverlapComm {
				fetch.WaitAll()
			}
			hc.Advance(float64(l.Stats.MACTests) / cfg.CPU.MACTestRate)
		})
		if err != nil {
			return err
		}

		var lists *interaction.Lists
		layer(6, func() {
			lists = interaction.BuildListsWorkers(batches, t, mac, cfg.WorkersPerRank)
			hc.Advance(float64(lists.Stats.MACTests) / cfg.CPU.MACTestRate)
		})

		var acc *device.AccumBuffer
		layer(7, func() {
			dev.BeginPhase(hc.Now())
			nTg := int64(local.Len())
			copyDone := dev.CopyIn(hc.Now(), 3*8*nTg+l.Bytes())
			if !cfg.ModelOnly {
				acc = device.NewAccumBuffer(int(nTg))
			}
			ln := core.NewLauncher(dev, hc, k, cfg.Streams, false, cfg.Precision, cfg.ModelOnly, copyDone)
			tg := batches.Targets
			src := t.Particles
			for bi := range batches.Batches {
				b := &batches.Batches[bi]
				for _, ci := range lists.Direct[bi] {
					nd := &t.Nodes[ci]
					ln.LaunchDirect(tg, b.Lo, b.Count(), src, nd.Lo, nd.Hi, acc)
				}
				for _, ci := range lists.Approx[bi] {
					ln.LaunchApprox(tg, b.Lo, b.Count(), cd.PX[ci], cd.PY[ci], cd.PZ[ci], cd.Qhat[ci], acc)
				}
				if cfg.OverlapComm {
					fetch.WaitBatch(l, bi)
				}
				for _, li := range l.Direct[bi] {
					leaf := l.Leaves[li]
					ln.LaunchDirect(tg, b.Lo, b.Count(), leaf, 0, leaf.Len(), acc)
				}
				for _, li := range l.Approx[bi] {
					ln.LaunchApprox(tg, b.Lo, b.Count(),
						l.ClusterPX[li], l.ClusterPY[li], l.ClusterPZ[li], l.ClusterQhat[li], acc)
				}
			}
			fetch.WaitAll()
			hc.AdvanceTo(dev.Drain())
			hc.AdvanceTo(dev.CopyOut(hc.Now(), 8*nTg))
		})

		if !cfg.ModelOnly {
			layer(8, func() {
				vals := acc.Values()
				localPhi := make([]float64, len(vals))
				batches.Perm.ScatterInto(localPhi, vals)
				phiMu.Lock()
				for i, o := range orig {
					phi[o] = localPhi[i]
				}
				phiMu.Unlock()
			})
		}

		out.chargeFlops = cd.TotalChargeWork(t)
		out.interactions = float64(lists.Stats.TotalInteractions() + l.Stats.TotalInteractions())
		out.stats = interaction.Stats{
			MACTests:    lists.Stats.MACTests + l.Stats.MACTests,
			DirectPairs: lists.Stats.DirectPairs + l.Stats.DirectPairs,
			ApproxPairs: lists.Stats.ApproxPairs + l.Stats.ApproxPairs,
		}
		out.read = markRead(lists, len(t.Nodes))
		out.fetched = l.ClusterHome
		return nil
	})
	if err != nil {
		return nil, workCounts{}, err
	}
	addRankLayers(ls, ranks, cfg.ModelOnly)
	var c workCounts
	for _, rk := range ranks {
		for _, h := range rk.fetched {
			ranks[h[0]].read[h[1]] = true
		}
	}
	for _, rk := range ranks {
		c.add(len(rk.read), countTrue(rk.read), rk.stats, cfg.Params.Degree)
	}
	return phi, c, nil
}

// addRankLayers adds each layer's mean over ranks to ls (ranks run
// concurrently, so the means sum to the ranks' shared wall time), and the
// work counts of the run.
func addRankLayers(ls series, ranks []rankOut, modelOnly bool) {
	mean := map[string]float64{}
	for _, rk := range ranks {
		for i, name := range distLayers {
			mean[name] += rk.dur[i] / float64(len(ranks))
		}
	}
	if modelOnly {
		for _, name := range []string{"extract", "tree", "batches", "grids", "let", "lists"} {
			ls.add(name, mean[name])
		}
		return
	}
	var flops, interactions float64
	for _, rk := range ranks {
		flops += rk.chargeFlops
		interactions += rk.interactions
	}
	for _, name := range []string{"charges", "compute", "scatter"} {
		ls.add(name, mean[name])
	}
	n := float64(len(ranks))
	ls.add("charges_ns_per_flop", 1e9*n*mean["charges"]/flops)
	ls.add("compute_ns_per_interaction", 1e9*n*mean["compute"]/interactions)
}
