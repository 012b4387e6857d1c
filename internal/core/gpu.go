package core

import (
	"barytree/internal/device"
	"barytree/internal/kernel"
	"barytree/internal/perfmodel"
	"barytree/internal/trace"
)

// DeviceOptions configure the simulated-GPU driver.
type DeviceOptions struct {
	// Streams overrides the number of asynchronous streams (0 keeps the
	// device default of 4). Used by the async-streams ablation.
	Streams int
	// Sync forces synchronous kernel launches: the host waits for each
	// kernel before queueing the next, so launch overheads are exposed and
	// kernels never overlap. This is the counterfactual for the paper's
	// asynchronous-streams design (Section 3.2).
	Sync bool
	// Precision selects fp64 (paper) or fp32 (mixed-precision extension)
	// for the potential-evaluation kernels.
	Precision device.Precision
	// HostSpec is the CPU driving the device (setup phase + kernel launch
	// loop). Zero value selects the Xeon X5650.
	HostSpec perfmodel.CPUSpec
	// ModelOnly skips all functional kernel execution while still
	// replaying the exact launch/transfer sequence through the timing
	// model. Result.Phi is nil. This lets the figure harnesses model runs
	// at the paper's full problem sizes; errors are then measured
	// separately with EvaluateSampled.
	ModelOnly bool
	// Tracer, when non-nil, records phase/build spans, one span per kernel
	// launch and per transfer, and activity counters. Tracing never
	// changes modeled times.
	Tracer *trace.Tracer
}

func (o *DeviceOptions) defaults() {
	if o.HostSpec.Cores == 0 {
		o.HostSpec = perfmodel.XeonX5650()
	}
}

// RunDevice evaluates the treecode plan on one simulated GPU, following the
// host/device flow of the paper's Section 3.2 for a single rank:
//
//	HtD copy of source data; modified-charge kernels per cluster; DtH copy
//	of modified charges; HtD copy of targets (and, in the distributed code,
//	the LET); batch/cluster kernels cycling over asynchronous streams with
//	atomic accumulation; DtH copy of the potentials.
func RunDevice(pl *Plan, k kernel.Kernel, dev *device.Device, opt DeviceOptions) *Result {
	opt.defaults()
	res := &Result{Interactions: pl.Lists.Stats}
	streams := dev.Spec.Streams
	if opt.Streams > 0 {
		streams = opt.Streams
	}
	dev.Precision = opt.Precision
	tr := opt.Tracer
	dev.Tracer = tr

	var hc perfmodel.Clock

	// --- Setup phase (tree, batches, interaction lists: host work). ---
	hc.Advance(pl.SetupWork(opt.HostSpec))
	res.Times[perfmodel.PhaseSetup] = hc.Now()
	if tr.Enabled() {
		// Reconstruct the setup sub-intervals from the same counters
		// SetupWork charges: source tree, target batches, then lists.
		srcT := float64(pl.Sources.Stats.ParticleScans+pl.Sources.Stats.ParticleMoves) / opt.HostSpec.TreeOpRate
		batchT := float64(pl.Batches.Stats.ParticleScans+pl.Batches.Stats.ParticleMoves) / opt.HostSpec.TreeOpRate
		pl.Sources.Stats.TraceSpan(tr, "tree.build", dev.Rank, 0, srcT)
		pl.Batches.Stats.TraceSpan(tr, "batches.build", dev.Rank, srcT, srcT+batchT)
		tr.Span("lists.build", trace.CatBuild, dev.Rank, trace.TrackHost, srcT+batchT, hc.Now(),
			trace.A("mac_tests", pl.Lists.Stats.MACTests),
			trace.A("direct_pairs", pl.Lists.Stats.DirectPairs),
			trace.A("approx_pairs", pl.Lists.Stats.ApproxPairs))
		tr.Span("setup", trace.CatPhase, dev.Rank, trace.TrackHost, 0, hc.Now())
	}

	// --- Precompute phase: the modified-charge kernels on the device,
	// whose values the host charge pass computes for every node into a
	// fresh ChargeState; model-only runs charge nothing, so qhat's entries
	// stay nil there. ---
	dev.BeginPhase(hc.Now())
	nSrc := int64(pl.Sources.Particles.Len())
	copyDone := dev.CopyIn(hc.Now(), 4*8*nSrc) // x, y, z, q
	launchCharges(pl.Clusters, pl.Sources, dev, &hc, copyDone, streams)
	var qhat [][]float64
	if opt.ModelOnly {
		qhat = make([][]float64, len(pl.Sources.Nodes))
	} else {
		st := NewChargeState(pl)
		st.chargeNodes(pl, everyNode(len(pl.Sources.Nodes)), dev.Workers())
		qhat = st.Qhat
	}
	hc.AdvanceTo(dev.Drain())
	hc.AdvanceTo(dev.CopyOut(hc.Now(), pl.Clusters.ChargesBytes()))
	res.Times[perfmodel.PhasePrecompute] = hc.Now() - res.Times[perfmodel.PhaseSetup]
	tr.Span("precompute", trace.CatPhase, dev.Rank, trace.TrackHost,
		res.Times[perfmodel.PhaseSetup], hc.Now())

	// --- Compute phase: potential evaluation on the device. ---
	preEnd := hc.Now()
	dev.BeginPhase(hc.Now())
	nTg := int64(pl.Batches.Targets.Len())
	// Targets are copied in; the source/cluster data is already resident
	// for a single-rank run (the distributed driver copies the LET here
	// instead).
	copyDone = dev.CopyIn(hc.Now(), 3*8*nTg)
	var phi *device.AccumBuffer
	if !opt.ModelOnly {
		phi = device.NewAccumBuffer(int(nTg))
	}
	l := NewLauncher(dev, &hc, k, streams, opt.Sync, opt.Precision, opt.ModelOnly, copyDone)
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	cd := pl.Clusters
	for bi := range pl.Batches.Batches {
		b := &pl.Batches.Batches[bi]
		for _, ci := range pl.Lists.Direct[bi] {
			nd := &pl.Sources.Nodes[ci]
			l.LaunchDirect(tg, b.Lo, b.Count(), src, nd.Lo, nd.Hi, phi)
		}
		for _, ci := range pl.Lists.Approx[bi] {
			l.LaunchApprox(tg, b.Lo, b.Count(), cd.PX[ci], cd.PY[ci], cd.PZ[ci], qhat[ci], phi)
		}
	}
	hc.AdvanceTo(dev.Drain())
	hc.AdvanceTo(dev.CopyOut(hc.Now(), 8*nTg))
	res.Times[perfmodel.PhaseCompute] = hc.Now() - preEnd
	tr.Span("compute", trace.CatPhase, dev.Rank, trace.TrackHost, preEnd, hc.Now())

	if !opt.ModelOnly {
		res.Phi = make([]float64, nTg)
		pl.Batches.Perm.ScatterInto(res.Phi, phi.Values())
	}
	return res
}

// ModelDirectSumDevice returns the modeled seconds for direct summation of
// nt targets against ns sources computed by a single launch of the
// batch-cluster direct sum kernel with a batch of all targets and a cluster
// of all sources, exactly as the paper computes its GPU direct-sum
// reference (Section 4). Transfers of the particle data and potentials are
// included.
func ModelDirectSumDevice(spec perfmodel.GPUSpec, k kernel.Kernel, nt, ns int) float64 {
	work := float64(nt) * float64(ns) * (k.Cost(kernel.ArchGPU) + 2)
	t := spec.TransferLatency + float64(4*8*ns)/spec.HtoDBandwidth
	t += spec.TransferLatency + float64(3*8*nt)/spec.HtoDBandwidth
	t += spec.LaunchOverheadHost + spec.LaunchLatencyDevice
	u := float64(nt) / float64(spec.ThreadCapacity())
	if u > 1 {
		u = 1
	}
	t += work / (spec.EffectiveFlopRate() * u)
	t += spec.TransferLatency + float64(8*nt)/spec.DtoHBandwidth
	return t
}
