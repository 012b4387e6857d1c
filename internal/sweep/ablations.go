package sweep

import (
	"fmt"
	"io"
	"math/rand"

	"barytree/internal/core"
	"barytree/internal/device"
	"barytree/internal/direct"
	"barytree/internal/dist"
	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/metrics"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/tree"
)

// AblationConfig is the shared workload for the design-choice ablations:
// the Figure 4 workload at configurable size.
type AblationConfig struct {
	N      int
	Params core.Params
	Kernel kernel.Kernel
	Seed   int64
	GPU    perfmodel.GPUSpec
	CPU    perfmodel.CPUSpec
}

// DefaultAblation returns the ablation workload (pass n = 1_000_000 for
// the paper's Figure 4 size).
func DefaultAblation(n int) AblationConfig {
	if n <= 0 {
		n = 200_000
	}
	leaf := SnapLeafSize(n, 2000)
	return AblationConfig{
		N:      n,
		Params: core.Params{Theta: 0.8, Degree: 8, LeafSize: leaf, BatchSize: leaf},
		Kernel: kernel.Coulomb{},
		Seed:   11,
		GPU:    perfmodel.TitanV(),
		CPU:    perfmodel.XeonX5650(),
	}
}

func (cfg AblationConfig) particles() *particle.Set {
	return particle.UniformCube(cfg.N, rand.New(rand.NewSource(cfg.Seed)))
}

// AsyncStreamsResult compares synchronous launches against the paper's
// 4-stream asynchronous launches (Section 3.2 reports ~25% compute-time
// reduction for the 1M-particle case).
type AsyncStreamsResult struct {
	SyncCompute  float64
	AsyncCompute float64
}

// Reduction returns the fractional compute-time reduction from async
// streams.
func (r AsyncStreamsResult) Reduction() float64 { return 1 - r.AsyncCompute/r.SyncCompute }

// RunAsyncStreams executes the async-streams ablation (timing model only).
func RunAsyncStreams(cfg AblationConfig) (*AsyncStreamsResult, error) {
	pts := cfg.particles()
	pl, err := core.NewPlan(pts, pts, cfg.Params)
	if err != nil {
		return nil, err
	}
	sync := core.RunDevice(pl, cfg.Kernel, device.New(cfg.GPU, 0), core.DeviceOptions{
		Sync: true, ModelOnly: true, HostSpec: cfg.CPU,
	})
	async := core.RunDevice(pl, cfg.Kernel, device.New(cfg.GPU, 0), core.DeviceOptions{
		ModelOnly: true, HostSpec: cfg.CPU,
	})
	return &AsyncStreamsResult{
		SyncCompute:  sync.Times[perfmodel.PhaseCompute],
		AsyncCompute: async.Times[perfmodel.PhaseCompute],
	}, nil
}

// BatchMACResult compares the batch-level MAC (the paper's design) with a
// per-target MAC. Batching admits slightly more interactions but needs far
// fewer MAC tests and, on a GPU, avoids thread divergence entirely.
type BatchMACResult struct {
	Batched   interaction.Stats
	PerTarget interaction.Stats
}

// WorkOverhead returns the extra interaction fraction the batched MAC
// admits over the per-target MAC.
func (r BatchMACResult) WorkOverhead() float64 {
	return float64(r.Batched.TotalInteractions())/float64(r.PerTarget.TotalInteractions()) - 1
}

// RunBatchMAC executes the batch-vs-per-target MAC ablation.
func RunBatchMAC(cfg AblationConfig) (*BatchMACResult, error) {
	pts := cfg.particles()
	t := tree.Build(pts, cfg.Params.LeafSize)
	b := tree.BuildBatches(pts, cfg.Params.BatchSize)
	mac := cfg.Params.MAC()
	return &BatchMACResult{
		Batched:   interaction.BuildLists(b, t, mac).Stats,
		PerTarget: interaction.PerTargetStats(b, t, mac),
	}, nil
}

// SizeCheckResult compares the full MAC with a variant lacking the
// (n+1)^3 < N_C cluster-size check: the paper includes the check because a
// direct sum over fewer particles than interpolation points is both faster
// and more accurate.
type SizeCheckResult struct {
	WithCheck    interaction.Stats
	WithoutCheck interaction.Stats
	ErrWith      float64
	ErrWithout   float64
}

// RunSizeCheck executes the cluster-size-check ablation, measuring both
// interaction volume and sampled accuracy. To make the check bind, the
// tree uses a leaf size below (n+1)^3 so that leaf clusters are smaller
// than their interpolation grids.
func RunSizeCheck(cfg AblationConfig) (*SizeCheckResult, error) {
	pts := cfg.particles()
	leaf := cfg.Params.MAC().InterpPoints() / 2
	t := tree.Build(pts, leaf)
	b := tree.BuildBatches(pts, leaf)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	sample := metrics.SampleIndices(cfg.N, 100, rng)
	ref := direct.SumAt(cfg.Kernel, pts, sample, pts)

	res := &SizeCheckResult{}
	for _, disable := range []bool{false, true} {
		mac := cfg.Params.MAC()
		mac.DisableSizeCheck = disable
		lists := interaction.BuildLists(b, t, mac)
		pl := &core.Plan{
			Params:   cfg.Params,
			Sources:  t,
			Batches:  b,
			Lists:    lists,
			Clusters: core.NewClusterData(t, cfg.Params.Degree),
		}
		phi, err := core.EvaluateSampled(pl, cfg.Kernel, core.NewChargeState(pl), sample)
		if err != nil {
			return nil, err
		}
		e := metrics.RelErr2(ref, phi)
		if disable {
			res.WithoutCheck = lists.Stats
			res.ErrWithout = e
		} else {
			res.WithCheck = lists.Stats
			res.ErrWith = e
		}
	}
	return res, nil
}

// LeafSizePoint is one point of the batch/leaf-size sweep.
type LeafSizePoint struct {
	LeafSize int
	GPUTime  float64
	Launches int
}

// RunLeafSizeSweep sweeps NB = NL and reports modeled GPU total time,
// demonstrating why the paper picks ~2000 (Titan V) / ~4000 (P100):
// smaller kernels underutilize the device and pay more launch overhead,
// larger ones reduce the benefit of the treecode approximation.
func RunLeafSizeSweep(cfg AblationConfig, sizes []int) ([]LeafSizePoint, error) {
	if len(sizes) == 0 {
		sizes = []int{250, 500, 1000, 2000, 4000, 8000, 16000}
	}
	pts := cfg.particles()
	var out []LeafSizePoint
	for _, leaf := range sizes {
		p := cfg.Params
		p.LeafSize, p.BatchSize = leaf, leaf
		pl, err := core.NewPlan(pts, pts, p)
		if err != nil {
			return nil, err
		}
		dev := device.New(cfg.GPU, 0)
		r := core.RunDevice(pl, cfg.Kernel, dev, core.DeviceOptions{ModelOnly: true, HostSpec: cfg.CPU})
		out = append(out, LeafSizePoint{
			LeafSize: leaf,
			GPUTime:  r.Times.Total(),
			Launches: dev.StatsSnapshot().Launches,
		})
	}
	return out, nil
}

// AspectRatioResult compares the paper's sqrt(2) aspect-ratio splitting
// rule against always-octant splitting on a skewed (RCB-like) subdomain.
type AspectRatioResult struct {
	WithRule          interaction.Stats
	OctantsOnly       interaction.Stats
	MaxAspectWithRule float64
	MaxAspectOctants  float64
}

// RunAspectRatio executes the aspect-ratio ablation on a 4:2:1 slab.
func RunAspectRatio(cfg AblationConfig) (*AspectRatioResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	pts := particle.NewSet(cfg.N)
	for i := 0; i < cfg.N; i++ {
		pts.Append(4*rng.Float64(), 2*rng.Float64(), rng.Float64(), 2*rng.Float64()-1)
	}
	mac := cfg.Params.MAC()

	run := func(ratio float64) (interaction.Stats, float64) {
		old := tree.MaxAspectRatio
		tree.MaxAspectRatio = ratio
		defer func() { tree.MaxAspectRatio = old }()
		t := tree.Build(pts, cfg.Params.LeafSize)
		b := tree.BuildBatches(pts, cfg.Params.BatchSize)
		var maxAR float64
		for i := range t.Nodes {
			if t.Nodes[i].IsLeaf() {
				if ar := t.Nodes[i].Box.AspectRatio(); ar > maxAR && ar < 1e300 {
					maxAR = ar
				}
			}
		}
		return interaction.BuildLists(b, t, mac).Stats, maxAR
	}

	res := &AspectRatioResult{}
	res.WithRule, res.MaxAspectWithRule = run(1.4142135623730951)
	// A huge threshold makes every nonzero dimension split every time
	// (pure octants), recreating needle-shaped clusters on skewed domains.
	res.OctantsOnly, res.MaxAspectOctants = run(1e18)
	return res, nil
}

// MixedPrecisionResult compares fp64 against the fp32 extension.
type MixedPrecisionResult struct {
	ErrFP64, ErrFP32   float64
	TimeFP64, TimeFP32 float64
}

// RunMixedPrecision executes the mixed-precision extension study
// (functional at the configured size: errors are real, times modeled).
func RunMixedPrecision(cfg AblationConfig) (*MixedPrecisionResult, error) {
	pts := cfg.particles()
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	sample := metrics.SampleIndices(cfg.N, 200, rng)
	ref := direct.SumAt(cfg.Kernel, pts, sample, pts)

	res := &MixedPrecisionResult{}
	for _, prec := range []device.Precision{device.FP64, device.FP32} {
		pl, err := core.NewPlan(pts, pts, cfg.Params)
		if err != nil {
			return nil, err
		}
		r := core.RunDevice(pl, cfg.Kernel, device.New(cfg.GPU, 0), core.DeviceOptions{
			Precision: prec, HostSpec: cfg.CPU,
		})
		e := metrics.RelErr2(ref, metrics.Gather(r.Phi, sample))
		if prec == device.FP32 {
			res.ErrFP32, res.TimeFP32 = e, r.Times.Total()
		} else {
			res.ErrFP64, res.TimeFP64 = e, r.Times.Total()
		}
	}
	return res, nil
}

// CommOverlapResult compares the distributed run with and without the
// comm/compute overlap extension (paper future work).
type CommOverlapResult struct {
	Plain      perfmodel.PhaseTimes
	Overlapped perfmodel.PhaseTimes
}

// RunCommOverlap executes the comm-overlap extension study.
func RunCommOverlap(cfg AblationConfig, ranks int) (*CommOverlapResult, error) {
	pts := cfg.particles()
	base := dist.Config{Ranks: ranks, Params: cfg.Params, GPU: cfg.GPU, CPU: cfg.CPU, ModelOnly: true}
	plain, err := dist.Run(base, cfg.Kernel, pts)
	if err != nil {
		return nil, err
	}
	base.OverlapComm = true
	over, err := dist.Run(base, cfg.Kernel, pts)
	if err != nil {
		return nil, err
	}
	return &CommOverlapResult{Plain: plain.Times, Overlapped: over.Times}, nil
}

// RenderAblations runs every ablation at the given config and writes a
// readable report.
func RenderAblations(cfg AblationConfig, ranks int, w io.Writer) error {
	fmt.Fprintf(w, "Ablation studies, N=%d, theta=%.1f, n=%d, NL=NB=%d, kernel=%s\n",
		cfg.N, cfg.Params.Theta, cfg.Params.Degree, cfg.Params.LeafSize, cfg.Kernel.Name())

	as, err := RunAsyncStreams(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[async streams]    sync=%.4fs  async(4)=%.4fs  reduction=%.0f%% (paper: ~25%% at 1M)\n",
		as.SyncCompute, as.AsyncCompute, 100*as.Reduction())

	bm, err := RunBatchMAC(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[batch MAC]        batched interactions=%d  per-target=%d  overhead=%.1f%%  MAC tests: %d vs %d\n",
		bm.Batched.TotalInteractions(), bm.PerTarget.TotalInteractions(),
		100*bm.WorkOverhead(), bm.Batched.MACTests, bm.PerTarget.MACTests)

	sc, err := RunSizeCheck(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[size check]       with: %d interactions err=%.2e   without: %d interactions err=%.2e\n",
		sc.WithCheck.TotalInteractions(), sc.ErrWith,
		sc.WithoutCheck.TotalInteractions(), sc.ErrWithout)

	ls, err := RunLeafSizeSweep(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[leaf size]        ")
	for _, p := range ls {
		fmt.Fprintf(w, "NL=%d:%.3fs  ", p.LeafSize, p.GPUTime)
	}
	fmt.Fprintln(w)

	ar, err := RunAspectRatio(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[aspect ratio]     sqrt2 rule: %d interactions (max leaf AR %.1f)   octants: %d (max AR %.1f)\n",
		ar.WithRule.TotalInteractions(), ar.MaxAspectWithRule,
		ar.OctantsOnly.TotalInteractions(), ar.MaxAspectOctants)

	// Mixed precision runs functionally (its errors are real numbers, not
	// model outputs), so cap its size to keep the report quick.
	mpCfg := cfg
	if mpCfg.N > 30000 {
		mpCfg.N = 30000
		mpCfg.Params.LeafSize = 1000
		mpCfg.Params.BatchSize = 1000
	}
	mp, err := RunMixedPrecision(mpCfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[mixed precision]  (N=%d) fp64: err=%.2e %.4fs   fp32: err=%.2e %.4fs\n",
		mpCfg.N, mp.ErrFP64, mp.TimeFP64, mp.ErrFP32, mp.TimeFP32)

	co, err := RunCommOverlap(cfg, ranks)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[comm overlap]     plain setup=%.4fs total=%.4fs   overlapped setup=%.4fs total=%.4fs\n",
		co.Plain[perfmodel.PhaseSetup], co.Plain.Total(),
		co.Overlapped[perfmodel.PhaseSetup], co.Overlapped.Total())
	return nil
}
