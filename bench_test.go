package barytree_test

// One benchmark per table/figure of the paper's evaluation (Section 4),
// plus ablation benches for the design choices called out in DESIGN.md and
// micro-benchmarks of the core primitives.
//
// The figure benches run the same harnesses as the cmd/fig* tools at
// laptop-scale defaults and report the headline numbers as custom metrics
// (modeled seconds, errors, speedups); run the cmd tools for the full
// series at paper scale. Times reported by the model are deterministic, so
// a single iteration is meaningful.

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"barytree"
	"barytree/internal/core"
	"barytree/internal/device"
	"barytree/internal/dist"
	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/rcb"
	"barytree/internal/serve"
	"barytree/internal/sweep"
	"barytree/internal/tree"

	"math/rand"
)

// BenchmarkFig2RCB regenerates Figure 2: recursive coordinate bisection of
// the unit square into 4 and 6 partitions with equal areas.
func BenchmarkFig2RCB(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := particle.NewSet(40000)
	for i := 0; i < 40000; i++ {
		pts.Append(rng.Float64(), rng.Float64(), 0, 1)
	}
	domain := pts.Bounds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d4 := rcb.Partition(pts, 4, domain)
		d6 := rcb.Partition(pts, 6, domain)
		if i == 0 {
			for r, box := range d4.Region {
				sz := box.Size()
				b.Logf("fig2a rank %d: area %.4f (want 0.25)", r, sz.X*sz.Y)
			}
			for r, box := range d6.Region {
				sz := box.Size()
				b.Logf("fig2b rank %d: area %.4f (want %.4f)", r, sz.X*sz.Y, 1.0/6)
			}
			b.Logf("fig2b first cut: dim=%d coord=%.4f ranks %d/%d",
				d6.Cuts[0].Dim, d6.Cuts[0].Coord, d6.Cuts[0].LeftRanks, d6.Cuts[0].RightRanks)
		}
	}
}

// BenchmarkFig4TimeVsError regenerates Figure 4: single-GPU vs 6-core-CPU
// run time against error for Coulomb and Yukawa over (theta, degree).
func BenchmarkFig4TimeVsError(b *testing.B) {
	cfg := sweep.DefaultFig4(60_000)
	cfg.Degrees = []int{1, 3, 5, 7, 9}
	cfg.BatchSize = 1500
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunFig4(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, v := range res.CheckShape() {
				b.Errorf("shape violation: %s", v)
			}
			var maxSpeedup float64
			for _, p := range res.Points {
				if s := p.CPUTime / p.GPUTime; s > maxSpeedup {
					maxSpeedup = s
				}
			}
			b.ReportMetric(maxSpeedup, "max-gpu-speedup-x")
			b.Logf("direct refs: cpu %.1fs gpu %.2fs (coulomb)", res.DirectCPU["coulomb"], res.DirectGPU["coulomb"])
			for _, p := range res.Points {
				b.Logf("%-8s theta=%.1f n=%-2d err=%.2e cpu=%8.2fs gpu=%7.4fs",
					p.Kernel, p.Theta, p.Degree, p.Err, p.CPUTime, p.GPUTime)
			}
		}
	}
}

// BenchmarkFig5WeakScaling regenerates Figure 5: run time at fixed
// particles per GPU as GPUs grow 1 -> 32.
func BenchmarkFig5WeakScaling(b *testing.B) {
	cfg := sweep.DefaultFig5(512)
	cfg.GPUs = []int{1, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunFig5(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, v := range res.CheckShape() {
				b.Errorf("shape violation: %s", v)
			}
			for _, p := range res.Points {
				b.Logf("%-8s perGPU=%-8d gpus=%-3d total=%7.3fs", p.Kernel, p.PerGPU, p.GPUs, p.Times.Total())
			}
		}
	}
}

// BenchmarkFig6StrongScaling regenerates Figure 6(a,b): run time and
// efficiency at fixed N as GPUs grow.
func BenchmarkFig6StrongScaling(b *testing.B) {
	cfg := sweep.DefaultFig6(128)
	cfg.GPUs = []int{1, 2, 4, 8, 16}
	cfg.Kernels = []kernel.Kernel{kernel.Coulomb{}}
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunFig6(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, v := range res.CheckShape() {
				b.Errorf("shape violation: %s", v)
			}
			var lastEff float64
			for _, p := range res.Points {
				b.Logf("%-8s N=%-8d gpus=%-3d total=%7.3fs eff=%.0f%%",
					p.Kernel, p.N, p.GPUs, p.Times.Total(), 100*p.Efficiency)
				lastEff = p.Efficiency
			}
			b.ReportMetric(100*lastEff, "efficiency-%")
		}
	}
}

// BenchmarkFig6Phases regenerates Figure 6(c,d): the setup / precompute /
// compute phase distribution versus GPU count.
func BenchmarkFig6Phases(b *testing.B) {
	cfg := sweep.DefaultFig6(128)
	cfg.Sizes = cfg.Sizes[1:] // the larger problem only
	cfg.GPUs = []int{1, 4, 16}
	cfg.Kernels = []kernel.Kernel{kernel.Coulomb{}}
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunFig6(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range res.Points {
				tot := p.Times.Total()
				b.Logf("gpus=%-3d setup=%4.1f%% precompute=%4.1f%% compute=%4.1f%% (total %.3fs)",
					p.GPUs,
					100*p.Times[perfmodel.PhaseSetup]/tot,
					100*p.Times[perfmodel.PhasePrecompute]/tot,
					100*p.Times[perfmodel.PhaseCompute]/tot, tot)
			}
		}
	}
}

// BenchmarkAblationAsyncStreams reproduces the Section 3.2 claim that
// asynchronous streams reduce compute time (~25% in the paper's 1M case).
func BenchmarkAblationAsyncStreams(b *testing.B) {
	cfg := sweep.DefaultAblation(100_000)
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunAsyncStreams(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.Reduction(), "reduction-%")
			b.Logf("sync=%.4fs async=%.4fs reduction=%.0f%%", res.SyncCompute, res.AsyncCompute, 100*res.Reduction())
		}
	}
}

// BenchmarkAblationBatchMAC quantifies the batch-level MAC trade-off of
// Section 3.2: slightly more admitted work, far fewer MAC tests, no
// per-target divergence.
func BenchmarkAblationBatchMAC(b *testing.B) {
	cfg := sweep.DefaultAblation(100_000)
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunBatchMAC(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.WorkOverhead(), "work-overhead-%")
			b.Logf("batched=%d per-target=%d (overhead %.1f%%), MAC tests %d vs %d",
				res.Batched.TotalInteractions(), res.PerTarget.TotalInteractions(),
				100*res.WorkOverhead(), res.Batched.MACTests, res.PerTarget.MACTests)
		}
	}
}

// BenchmarkAblationClusterSizeCheck verifies the (n+1)^3 < N_C condition:
// without it, small clusters get approximated, costing more work for no
// accuracy gain.
func BenchmarkAblationClusterSizeCheck(b *testing.B) {
	cfg := sweep.DefaultAblation(30_000)
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunSizeCheck(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("with check: %d interactions err=%.2e; without: %d err=%.2e",
				res.WithCheck.TotalInteractions(), res.ErrWith,
				res.WithoutCheck.TotalInteractions(), res.ErrWithout)
		}
	}
}

// BenchmarkAblationLeafSize sweeps NB = NL, showing the interior optimum
// that motivates the paper's ~2000 (Titan V) / ~4000 (P100).
func BenchmarkAblationLeafSize(b *testing.B) {
	cfg := sweep.DefaultAblation(100_000)
	for i := 0; i < b.N; i++ {
		pts, err := sweep.RunLeafSizeSweep(cfg, []int{250, 1000, 4000, 16000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				b.Logf("NL=NB=%-6d gpu=%8.4fs launches=%d", p.LeafSize, p.GPUTime, p.Launches)
			}
		}
	}
}

// BenchmarkAblationAspectRatio compares the sqrt(2) splitting rule against
// pure octant splits on a skewed subdomain (Section 3.1).
func BenchmarkAblationAspectRatio(b *testing.B) {
	cfg := sweep.DefaultAblation(50_000)
	cfg.Params.LeafSize, cfg.Params.BatchSize = 500, 500
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunAspectRatio(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("sqrt2 rule: %d interactions, max leaf AR %.2f; octants: %d, AR %.2f",
				res.WithRule.TotalInteractions(), res.MaxAspectWithRule,
				res.OctantsOnly.TotalInteractions(), res.MaxAspectOctants)
		}
	}
}

// BenchmarkExtensionMixedPrecision measures the fp32 extension (paper
// future work): ~2x modeled kernel throughput for ~7 digits of accuracy.
func BenchmarkExtensionMixedPrecision(b *testing.B) {
	cfg := sweep.DefaultAblation(20_000)
	cfg.Params.LeafSize, cfg.Params.BatchSize = 500, 500
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunMixedPrecision(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("fp64 err=%.2e %.4fs; fp32 err=%.2e %.4fs",
				res.ErrFP64, res.TimeFP64, res.ErrFP32, res.TimeFP32)
		}
	}
}

// BenchmarkExtensionCommOverlap measures the comm/compute overlap
// extension (paper future work) on the distributed backend.
func BenchmarkExtensionCommOverlap(b *testing.B) {
	cfg := sweep.DefaultAblation(50_000)
	cfg.Params.LeafSize, cfg.Params.BatchSize = 1000, 1000
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunCommOverlap(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("plain: %v", res.Plain)
			b.Logf("overlapped: %v", res.Overlapped)
		}
	}
}

// BenchmarkExtensionVariants compares the three treecode schemes (the
// paper's particle-cluster BLTC vs the cluster-particle and
// cluster-cluster future-work variants) on identical parameters: same
// accuracy class, different interaction counts.
func BenchmarkExtensionVariants(b *testing.B) {
	pts := barytree.UniformCube(30_000, 12)
	p := barytree.Params{Theta: 0.7, Degree: 4, LeafSize: 700, BatchSize: 700}
	ref := barytree.DirectSumAt(barytree.Coulomb(), pts, barytree.SampleIndices(30_000, 300, 13), pts)
	sample := barytree.SampleIndices(30_000, 300, 13)
	for i := 0; i < b.N; i++ {
		for _, v := range []barytree.TreecodeVariant{barytree.ParticleCluster, barytree.ClusterParticle, barytree.ClusterCluster} {
			phi, err := barytree.SolveVariant(v, barytree.Coulomb(), pts, pts, p)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				approx := make([]float64, len(sample))
				for j, idx := range sample {
					approx[j] = phi[idx]
				}
				b.Logf("%s: err=%.2e", v, barytree.RelErr2(ref, approx))
			}
		}
	}
}

// --- Micro-benchmarks of the core primitives (real wall-clock). ---

// benchWorkers runs build(workers) as two sub-benchmarks: serial (workers
// 1) and parallel (workers 0, GOMAXPROCS). Both produce the same bytes;
// the pair measures what the fan-out buys on the host.
func benchWorkers(b *testing.B, build func(workers int)) {
	for _, c := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build(c.workers)
			}
		})
	}
}

func BenchmarkTreeBuild100k(b *testing.B) {
	pts := barytree.UniformCube(100_000, 1)
	benchWorkers(b, func(w int) { tree.BuildWorkers(pts, 2000, w) })
}

func BenchmarkBatchBuild100k(b *testing.B) {
	pts := barytree.UniformCube(100_000, 1)
	benchWorkers(b, func(w int) { tree.BuildBatchesWorkers(pts, 2000, w) })
}

// BenchmarkTreeBuildProbe200k builds the source tree of bltcbench's
// probe-sparse-200k workload: its 200k Plummer sources (bench/solve.go's
// probeGeometry, drawn from the stream its rngFor names at seed 0) at leaf
// size 1000. The top nodes hold up to all 200k particles, and the subtree
// tasks below them are where a parallel build gains.
func BenchmarkTreeBuildProbe200k(b *testing.B) {
	h := fnv.New64a()
	h.Write([]byte("probe-sparse-200k/sources"))
	pts := barytree.PlummerSphere(200_000, 1, int64(h.Sum64()))
	benchWorkers(b, func(w int) { tree.BuildWorkers(pts, 1000, w) })
}

// BenchmarkClusterData50k isolates the interpolation-grid layout
// (NewClusterData) that BenchmarkModifiedCharges used to fold in: arena
// allocation plus parallel grid fill, no charge pass.
func BenchmarkClusterData50k(b *testing.B) {
	pts := barytree.UniformCube(50_000, 2)
	t := tree.Build(pts, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd := core.NewClusterData(t, 8)
		benchSink = cd.PX[0][0]
	}
}

// BenchmarkModifiedCharges measures the charge pass alone on a fixed
// layout (grid construction is BenchmarkClusterData50k): a charge state
// invalidated and recomputed, as Solver.UpdateCharges does. The plan has
// no interaction lists, so the pass charges every node: the leaves from
// their particles and every internal node from its children. It writes
// into the state's q-hat arena, and its only allocations are the node
// flags, the worker closure and the one arena of every worker's chunk
// of barycentric rows and the transfer operator: a few KB per op,
// whatever the cluster sizes.
func BenchmarkModifiedCharges(b *testing.B) {
	pts := barytree.UniformCube(50_000, 2)
	t := tree.Build(pts, 2000)
	pl := &core.Plan{Sources: t, Clusters: core.NewClusterData(t, 8)}
	st := core.NewChargeState(pl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Invalidate()
		st.Compute(pl, 0)
	}
}

// probePlanParams are bltcbench's probe-sparse-200k parameters.
var probePlanParams = core.Params{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: 100}

// probePlanInputs returns bltcbench's probe-sparse-200k geometry:
// BenchmarkTreeBuildProbe200k's 200k Plummer sources and 2000 probes on
// the faces of their bounding cube.
func probePlanInputs() (probes, sources *particle.Set) {
	h := fnv.New64a()
	h.Write([]byte("probe-sparse-200k/sources"))
	sources = barytree.PlummerSphere(200_000, 1, int64(h.Sum64()))
	rng := rand.New(rand.NewSource(1))
	bx := sources.Bounds()
	c, sz := bx.Center(), bx.Size()
	hw := max(sz.X, sz.Y, sz.Z) / 2
	probes = particle.NewSet(2000)
	for i := 0; i < 2000; i++ {
		p := [3]float64{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
		face := rng.Intn(6)
		p[face/2] = float64(2*(face%2) - 1)
		probes.Append(c.X+hw*p[0], c.Y+hw*p[1], c.Z+hw*p[2], 0)
	}
	return probes, sources
}

// BenchmarkChargePass measures the charge pass as Plan.Solve runs it: each
// op invalidates a charge state and charges, on a plan with interaction
// lists, the nodes the approximation lists read and those they are
// charged from. probe200k is bltcbench's probe-sparse-200k plan
// (BenchmarkTreeBuildProbe200k's sources, 2000 probes on the faces of
// their bounding cube, the workload's params), where the charge pass is
// most of an op; probe200k-degree8 is that plan at degree 8, whose rows
// of 9 points take two ZMM chunks. leaf10 is 50k Plummer sources at leaf
// size 10 and degree 10, where a node of fewer than 66 to 264 particles
// is cheaper to charge from its particles than from its children, so the
// pass must not charge read nodes' subtrees down to the leaves. Each
// reports ns/term: the op's time over N·(n+1)³, one term per source
// particle and interpolation point, comparable to BenchmarkEvalTile's ns
// per interaction. The probe plans charge every particle in exactly one
// node from its particles, so that is every term they add; leaf10 adds
// 2% fewer and spends most of its op charging nodes from their children.
func BenchmarkChargePass(b *testing.B) {
	probes, sources := probePlanInputs()
	for _, degree := range []int{6, 8} {
		name := "probe200k"
		if degree != 6 {
			name += "-degree" + strconv.Itoa(degree)
		}
		b.Run(name, func(b *testing.B) {
			p := probePlanParams
			p.Degree = degree
			benchChargePass(b, probes, sources, p)
		})
	}
	b.Run("leaf10", func(b *testing.B) {
		pts := barytree.PlummerSphere(50_000, 1, 4)
		benchChargePass(b, pts, pts, core.Params{Theta: 0.8, Degree: 10, LeafSize: 10, BatchSize: 10})
	})
}

// benchChargePass runs BenchmarkChargePass's op on one plan, serial and
// at every core, and reports its ns/term.
func benchChargePass(b *testing.B, targets, sources *particle.Set, p core.Params) {
	pl, err := core.NewPlan(targets, sources, p)
	if err != nil {
		b.Fatal(err)
	}
	st := core.NewChargeState(pl)
	m := float64(p.Degree + 1)
	terms := float64(sources.Len()) * m * m * m
	for _, c := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.Invalidate()
				st.Compute(pl, c.workers)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*terms), "ns/term")
		})
	}
}

func BenchmarkTreecodeCPU50k(b *testing.B) {
	pts := barytree.UniformCube(50_000, 3)
	p := barytree.Params{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := barytree.Solve(barytree.Coulomb(), pts, pts, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputePhase50k measures the compute phase alone:
// core.RunComputeState on a prebuilt plan and a charge state whose
// modified charges are already computed, the pass Plan.Solve and the
// Solver facade run after the charge pass. Unlike
// BenchmarkTreecodeCPU50k — which re-runs the full Solve (tree build,
// lists, charge pass) every iteration and dilutes inner-loop wins — this
// isolates the interaction-list evaluation that dominates every problem
// size in the paper's Tables 3-5.
func BenchmarkComputePhase50k(b *testing.B) {
	pts := barytree.UniformCube(50_000, 3)
	p := core.Params{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: 1000}
	pl, err := core.NewPlan(pts, pts, p)
	if err != nil {
		b.Fatal(err)
	}
	st := core.NewChargeState(pl)
	st.Compute(pl, 0)
	phi := make([]float64, pts.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(phi)
		core.RunComputeState(pl, kernel.Coulomb{}, st, phi, 0)
	}
}

// BenchmarkComputePhase50kParallel is the multi-core scaling curve of the
// compute phase: the same prebuilt plan and charge state as
// BenchmarkComputePhase50k, evaluated at every power-of-two worker count
// up to the machine's core count. The ratio between successive entries is
// the parallel efficiency of the batch/leaf partition.
func BenchmarkComputePhase50kParallel(b *testing.B) {
	pts := barytree.UniformCube(50_000, 3)
	p := core.Params{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: 1000}
	pl, err := core.NewPlan(pts, pts, p)
	if err != nil {
		b.Fatal(err)
	}
	st := core.NewChargeState(pl)
	st.Compute(pl, 0)
	phi := make([]float64, pts.Len())
	for workers := 1; workers <= runtime.NumCPU(); workers *= 2 {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(phi)
				core.RunComputeState(pl, kernel.Coulomb{}, st, phi, workers)
			}
		})
	}
}

func BenchmarkTreecodeDevice50k(b *testing.B) {
	pts := barytree.UniformCube(50_000, 3)
	p := barytree.Params{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := barytree.SolveDevice(barytree.Coulomb(), pts, pts, p, barytree.DeviceConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirectSum5k(b *testing.B) {
	pts := barytree.UniformCube(5000, 4)
	k := barytree.Coulomb()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		barytree.DirectSum(k, pts, pts)
	}
}

func BenchmarkDistributed4Ranks(b *testing.B) {
	pts := barytree.UniformCube(20_000, 5)
	cfg := dist.Config{
		Ranks:  4,
		Params: core.Params{Theta: 0.8, Degree: 5, LeafSize: 500, BatchSize: 500},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.Run(cfg, kernel.Coulomb{}, pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedOverlap4Ranks(b *testing.B) {
	// Same run on the pipelined LET-exchange schedule: nonblocking bulk
	// fetch plus per-batch waits. Tracks the host-side cost of the async
	// request bookkeeping against BenchmarkDistributed4Ranks (the modeled
	// times improve; the wall-clock cost must stay in the same ballpark).
	pts := barytree.UniformCube(20_000, 5)
	cfg := dist.Config{
		Ranks:       4,
		Params:      core.Params{Theta: 0.8, Degree: 5, LeafSize: 500, BatchSize: 500},
		OverlapComm: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.Run(cfg, kernel.Coulomb{}, pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedYukawa4Ranks is bltcbench's gpu-4rank-32k solve as
// a Go benchmark: 32k uniform points, Yukawa at kappa = 0.5, degree 6,
// leaf and batch size 1000 on four P100 ranks with the LET exchange
// overlapped. Nearly all of its wall clock is the Yukawa tiles and the
// device launcher around them, so it gives both a go test A/B.
func BenchmarkDistributedYukawa4Ranks(b *testing.B) {
	pts := barytree.UniformCube(32_000, 6)
	cfg := dist.Config{
		Ranks:       4,
		Params:      core.Params{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: 1000},
		GPU:         perfmodel.P100(),
		CPU:         perfmodel.XeonX5650(),
		Net:         perfmodel.CometIB(),
		OverlapComm: true,
	}
	k := kernel.Yukawa{Kappa: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.Run(cfg, k, pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceSimulatorDrain(b *testing.B) {
	// Cost of the fluid-flow stream scheduler itself at 10k launches.
	spec := perfmodel.TitanV()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := device.New(spec, 1)
		d.BeginPhase(0)
		for j := 0; j < 10_000; j++ {
			d.Launch(device.LaunchSpec{Stream: j % 4, Grid: 2000, Block: 729, FlopEq: 1e7}, float64(j)*1e-5, nil)
		}
		d.Drain()
	}
}

// BenchmarkEvalDirectBlock measures each built-in kernel's width-1 tile
// against the width-1 Eval loop kernel.Func resolves to: one target
// against a 2000-source block, the shape of a batch/leaf direct-sum inner
// loop. "iface" dispatches through kernel.Kernel per source; "block" is
// the specialized loop every cascade ends with. Every iteration evaluates
// the same target: cycling `i % tg.Len()` through distinct targets made
// ns/op depend on which targets a given b.N landed on (their distances to
// the block differ), which read as run-to-run noise in the tracked record.
func BenchmarkEvalDirectBlock(b *testing.B) {
	const nSrc = 2000
	src := barytree.UniformCube(nSrc, 11)
	tg := barytree.UniformCube(16, 12)
	for _, k := range []kernel.Kernel{
		kernel.Coulomb{},
		kernel.Yukawa{Kappa: 0.5},
		kernel.Gaussian{Sigma: 1.1},
		kernel.Multiquadric{C: 0.3},
		kernel.RegularizedCoulomb{Eps: 0.02},
	} {
		width1 := func(k kernel.Kernel) kernel.Tile {
			tiles := kernel.Tiles(k)
			return tiles[len(tiles)-1].Eval
		}
		for _, c := range []struct {
			name string
			tile kernel.Tile
		}{
			{"iface", width1(kernel.Func{KernelName: k.Name(), F: k.Eval})},
			{"block", width1(k)},
		} {
			b.Run(k.Name()+"/"+c.name, func(b *testing.B) {
				var phi [1]float64
				for i := 0; i < b.N; i++ {
					c.tile(tg.X[:1], tg.Y[:1], tg.Z[:1], src.X, src.Y, src.Z, src.Q, phi[:])
				}
				benchSink = phi[0]
			})
		}
	}
}

// benchSink defeats dead-code elimination in the micro-benchmarks.
var benchSink float64

// BenchmarkPlanSolve50k measures the amortized-plan solve path
// (NewPlan once, Plan.Solve per iteration with fresh charges): the
// steady-state cost a bltcd request pays, i.e. BenchmarkTreecodeCPU50k
// minus the per-call setup phase.
func BenchmarkPlanSolve50k(b *testing.B) {
	pts := barytree.UniformCube(50_000, 3)
	p := barytree.Params{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: 1000}
	pl, err := barytree.NewPlan(pts, pts, p)
	if err != nil {
		b.Fatal(err)
	}
	k := barytree.Coulomb()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Solve(k, pts.Q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewPlan50k times the setup phase on one 50k uniform set at
// solve-uniform-50k's parameters: nb=nl, where the targets are the
// sources and BatchSize == LeafSize, so the batches are the source tree's
// leaves (one tree), and nb=500, where the targets' tree is built as well.
func BenchmarkNewPlan50k(b *testing.B) {
	pts := barytree.UniformCube(50_000, 3)
	for _, c := range []struct {
		name string
		nb   int
	}{{"nb=nl", 1000}, {"nb=500", 500}} {
		b.Run(c.name, func(b *testing.B) {
			p := barytree.Params{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: c.nb}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := barytree.NewPlan(pts, pts, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewPlanProbe200k times the whole setup phase of bltcbench's
// probe-sparse-200k workload, the plan BenchmarkChargePass charges:
// validation, the source tree, the target batches, the interaction lists
// and the cluster grids.
func BenchmarkNewPlanProbe200k(b *testing.B) {
	probes, sources := probePlanInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewPlan(probes, sources, probePlanParams); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSolve20k measures one solve through the full daemon path
// — HTTP round-trip, JSON decode/encode of charges and potentials,
// admission, cached plan, pooled charge state — at a size where the serving
// overhead is visible next to the compute. bltcbench's serve-open-2k
// workload (bench/README.md) measures the daemon under concurrent
// open-loop load.
func BenchmarkServeSolve20k(b *testing.B) {
	const n = 20_000
	pts := barytree.UniformCube(n, 7)
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	planBody, _ := json.Marshal(serve.PlanRequest{GeometrySpec: serve.GeometrySpec{
		Targets: &serve.PointsSpec{X: pts.X, Y: pts.Y, Z: pts.Z},
		Params:  &serve.ParamsSpec{Theta: 0.8, Degree: 6, LeafSize: 1000, BatchSize: 1000},
	}})
	resp, err := http.Post(ts.URL+"/v1/plans", "application/json", bytes.NewReader(planBody))
	if err != nil {
		b.Fatal(err)
	}
	var plan serve.PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()

	solveBody, _ := json.Marshal(serve.SolveRequest{Plan: plan.Plan, Charges: pts.Q})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(solveBody))
		if err != nil {
			b.Fatal(err)
		}
		var sol serve.SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if len(sol.Phi) != n {
			b.Fatalf("got %d potentials, want %d", len(sol.Phi), n)
		}
	}
}

// BenchmarkBuildLists100k measures interaction-list construction for a
// 100k-particle system, serial versus the parallel traversal (which is
// byte-identical to serial; see the interaction package tests).
func BenchmarkBuildLists100k(b *testing.B) {
	pts := barytree.UniformCube(100_000, 13)
	t := tree.Build(pts, 2000)
	batches := tree.BuildBatches(pts, 2000)
	mac := interaction.MAC{Theta: 0.8, Degree: 6}
	benchWorkers(b, func(w int) { interaction.BuildListsWorkers(batches, t, mac, w) })
}
