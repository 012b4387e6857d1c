// Package barytree is a Go implementation of the GPU-accelerated
// barycentric Lagrange treecode (BLTC) of Vaughn, Wilson & Krasny
// (IPDPS/IPPS 2020, arXiv:2003.01836): fast O(N log N) summation of
// pairwise particle interactions
//
//	phi(x_i) = sum_j G(x_i, y_j) q_j
//
// for any smooth, non-oscillatory kernel G, using barycentric Lagrange
// interpolation at Chebyshev points of the second kind to approximate
// well-separated particle-cluster interactions.
//
// The package exposes three execution backends mirroring the paper's
// implementation stack:
//
//   - Solve / SolveCPU: multicore CPU evaluation (the paper's OpenMP
//     baseline, parallelized over target batches).
//   - SolveDevice: a single simulated GPU — kernels execute for real as
//     grids of thread blocks over asynchronous streams, while a calibrated
//     performance model reports Titan V / P100 class timings.
//   - SolveDistributed: multi-GPU execution over an in-process MPI runtime
//     with recursive coordinate bisection, one-sided RMA windows and
//     locally essential trees, one simulated GPU per rank.
//
// Every Solve* function runs the full pipeline — setup (tree, batches,
// interaction lists, cluster grids), precompute (modified charges) and
// compute — for one shot. When the particle positions repeat across calls,
// run the setup once with NewPlan and reuse it: Plan.Solve (concurrent
// one-shot solves against a shared immutable Plan), Solver (sequential
// charge-update iteration, e.g. a Krylov matvec loop), or the bltcd
// daemon (cmd/bltcd), which serves HTTP solve requests against a cache of
// Plans keyed by geometry. All reuse paths return potentials byte-identical
// to the corresponding one-shot call; see docs/serving.md.
//
// All numerical results are genuinely computed in double (or optionally
// single) precision; only the *reported times* come from the performance
// model, since no physical GPU or network is involved. See DESIGN.md for
// the substitution rationale and EXPERIMENTS.md for the paper-vs-measured
// record.
package barytree

import (
	"fmt"
	"math/rand"

	"barytree/internal/core"
	"barytree/internal/device"
	"barytree/internal/direct"
	"barytree/internal/dist"
	"barytree/internal/kernel"
	"barytree/internal/metrics"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/trace"
	"barytree/internal/variants"
)

// Particles is a structure-of-arrays particle collection: positions
// (X, Y, Z) and charges/masses/weights (Q).
type Particles = particle.Set

// NewParticles returns an empty particle set with capacity for n particles;
// fill it with Append.
func NewParticles(n int) *Particles { return particle.NewSet(n) }

// Kernel is a pairwise interaction kernel G(target, source). The treecode
// is kernel-independent: it only evaluates G, so any smooth non-oscillatory
// kernel works. Use KernelFunc to supply your own.
type Kernel = kernel.Kernel

// Coulomb returns the Coulomb kernel G(x,y) = 1/|x-y|.
func Coulomb() Kernel { return kernel.Coulomb{} }

// Yukawa returns the screened Coulomb kernel G(x,y) = exp(-kappa|x-y|)/|x-y|.
func Yukawa(kappa float64) Kernel { return kernel.Yukawa{Kappa: kappa} }

// Gaussian returns G(x,y) = exp(-|x-y|^2/sigma^2).
func Gaussian(sigma float64) Kernel { return kernel.Gaussian{Sigma: sigma} }

// Multiquadric returns G(x,y) = sqrt(|x-y|^2 + c^2).
func Multiquadric(c float64) Kernel { return kernel.Multiquadric{C: c} }

// RegularizedCoulomb returns the Plummer-softened kernel
// G(x,y) = 1/sqrt(|x-y|^2 + eps^2), standard in gravitational N-body codes.
func RegularizedCoulomb(eps float64) Kernel { return kernel.RegularizedCoulomb{Eps: eps} }

// KernelFunc wraps a plain function as a Kernel. cpuCost and gpuCost are
// the modeled flop-equivalents per evaluation used by the performance
// model (pass 0 for a sensible default).
func KernelFunc(name string, f func(tx, ty, tz, sx, sy, sz float64) float64, cpuCost, gpuCost float64) Kernel {
	return kernel.Func{KernelName: name, F: f, CPUCost: cpuCost, GPUCost: gpuCost}
}

// Params are the treecode parameters: the MAC opening parameter theta in
// (0,1), the interpolation degree n >= 1, the source-tree leaf size NL and
// the target batch size NB (Section 2.4 of the paper). The optional
// Workers field bounds the host goroutines of the setup phase and of plan
// solves' charge and compute passes; output is bit-identical for every
// worker count. Morton selects the canonical Z-order build that enables
// Plan.Update for dynamic simulations; a Morton plan's targets must sit
// at its sources' positions.
type Params = core.Params

// DefaultParams returns the paper's scaling-run parameters (theta = 0.8,
// n = 8, NL = NB = 4000), which deliver 5-6 digit accuracy on uniform
// particle distributions.
func DefaultParams() Params { return core.DefaultParams() }

// PhaseTimes holds modeled seconds for the paper's three phases: setup
// (trees, batches, interaction lists, LET), precompute (modified charges)
// and compute (potential evaluation).
type PhaseTimes = perfmodel.PhaseTimes

// Tracer collects execution spans (kernels per stream, transfers per copy
// engine, RMA operations, phases) and counters in modeled time. Attach one
// through DeviceConfig.Trace or DistributedConfig.Trace, then export with
// WriteChrome (Chrome trace-event JSON for Perfetto) or WriteProfile (text
// breakdown tables). A nil *Tracer disables tracing at zero cost. See
// docs/observability.md for the span taxonomy and a worked example.
type Tracer = trace.Tracer

// NewTracer returns an empty enabled Tracer.
func NewTracer() *Tracer { return trace.New() }

// TracePhaseNames returns the phase span names in execution order — the
// paper's setup/precompute/compute split followed by the Plan.Update
// decision spans (update.refit, update.repair, update.rebuild) — the
// recommended phase-order argument for Tracer.WriteProfile.
func TracePhaseNames() []string {
	return append(perfmodel.PhaseNames(), core.UpdateSpanNames()...)
}

// Result is the output of a treecode solve.
type Result struct {
	// Phi holds the potential at each target, in input order.
	Phi []float64
	// Times are the modeled phase durations on the modeled architecture
	// (Xeon X5650 for CPU runs, Titan V/P100 for device runs).
	Times PhaseTimes
}

// Solve computes the potentials with the treecode on the CPU backend and
// returns them in target order. It is the simplest entry point; use
// SolveCPU for timing details. Each call runs the setup phase from
// scratch — when solving repeatedly on fixed positions (new charges, or a
// different kernel), build the geometry once with NewPlan and call
// Plan.Solve, which returns byte-identical potentials without the rebuild.
func Solve(k Kernel, targets, sources *Particles, p Params) ([]float64, error) {
	res, err := SolveCPU(k, targets, sources, p, 0)
	if err != nil {
		return nil, err
	}
	return res.Phi, nil
}

// SolveCPU computes the potentials with the multicore CPU backend
// (parallelized over target batches, like the paper's OpenMP code).
// workers = 0 uses all available cores for the functional computation;
// reported times always model the paper's 6-core Xeon X5650. The setup
// phase runs per call; amortize it across calls with NewPlan/Plan.Solve.
func SolveCPU(k Kernel, targets, sources *Particles, p Params, workers int) (*Result, error) {
	pl, err := core.NewPlan(targets, sources, p)
	if err != nil {
		return nil, err
	}
	r := core.RunCPU(pl, k, core.CPUOptions{Workers: workers})
	return &Result{Phi: r.Phi, Times: r.Times}, nil
}

// GPUModel selects the modeled GPU for SolveDevice and SolveDistributed.
type GPUModel int

const (
	// TitanV models the NVIDIA Titan V of the paper's Figure 4.
	TitanV GPUModel = iota
	// P100 models the NVIDIA Tesla P100 of the paper's Figures 5 and 6.
	P100
)

func (g GPUModel) spec() perfmodel.GPUSpec {
	if g == P100 {
		return perfmodel.P100()
	}
	return perfmodel.TitanV()
}

// DeviceConfig configures the simulated-GPU backend.
type DeviceConfig struct {
	// GPU selects the modeled device (default TitanV).
	GPU GPUModel
	// Streams overrides the number of asynchronous streams (default 4).
	Streams int
	// SyncLaunches disables asynchronous streams (the paper's ablation:
	// async streams reduce compute time by ~25% in the 1M-particle case).
	SyncLaunches bool
	// SinglePrecision runs the potential kernels in fp32 (the paper's
	// mixed-precision future-work extension).
	SinglePrecision bool
	// Workers bounds the host goroutines used for functional kernel
	// execution (<= 0 selects all cores). Setup parallelism is governed by
	// Params.Workers. Results and modeled times are identical for every
	// value.
	Workers int
	// Trace, when non-nil, records spans and counters for the run (see
	// Tracer). Tracing never changes modeled times or results.
	Trace *Tracer
}

// SolveDevice computes the potentials on one simulated GPU, following the
// paper's host/device flow (Section 3.2): source copy-in, per-cluster
// modified-charge kernels, batch/cluster potential kernels cycling over
// asynchronous streams with atomic accumulation, potential copy-out. The
// setup phase (host-side, Section 3.1) runs per call, as in the paper's
// measurements; the reuse paths (Plan.Solve, Solver, cmd/bltcd) currently
// evaluate on the CPU backend only.
func SolveDevice(k Kernel, targets, sources *Particles, p Params, cfg DeviceConfig) (*Result, error) {
	pl, err := core.NewPlan(targets, sources, p)
	if err != nil {
		return nil, err
	}
	prec := device.FP64
	if cfg.SinglePrecision {
		if _, ok := k.(kernel.F32Kernel); !ok {
			return nil, fmt.Errorf("barytree: kernel %q has no single-precision path", k.Name())
		}
		prec = device.FP32
	}
	dev := device.New(cfg.GPU.spec(), cfg.Workers)
	r := core.RunDevice(pl, k, dev, core.DeviceOptions{
		Streams:   cfg.Streams,
		Sync:      cfg.SyncLaunches,
		Precision: prec,
		Tracer:    cfg.Trace,
	})
	return &Result{Phi: r.Phi, Times: r.Times}, nil
}

// DistributedConfig configures the multi-GPU backend.
type DistributedConfig struct {
	// Ranks is the number of MPI ranks / GPUs (required, >= 1).
	Ranks int
	// GPU selects the per-rank device model (default P100, the paper's
	// scaling testbed).
	GPU GPUModel
	// OverlapComm enables the pipelined LET-exchange schedule (the
	// paper's future-work extension): remote particle and charge data is
	// fetched with nonblocking RMA gets while local-list batch kernels
	// run, and each batch waits only on its own requests. Results are
	// bit-identical with and without overlap; only modeled times change.
	OverlapComm bool
	// WorkersPerRank bounds the host goroutines each rank uses for its
	// setup phase and functional kernel execution; <= 0 divides the
	// machine evenly across ranks for setup. Results and modeled times
	// are identical for every value.
	WorkersPerRank int
	// Trace, when non-nil, records spans and counters for every rank (see
	// Tracer). Tracing never changes modeled times or results.
	Trace *Tracer
}

// DistributedResult extends Result with per-rank phase profiles.
type DistributedResult struct {
	Result
	// RankTimes holds each rank's modeled phase durations; Times is the
	// per-phase maximum (phases are barrier-separated).
	RankTimes []PhaseTimes
}

// SolveDistributed computes the potentials of pts (targets == sources, as
// in the paper's experiments) across cfg.Ranks simulated GPUs: recursive
// coordinate bisection, per-rank local trees, one-sided RMA construction
// of locally essential trees, and per-rank device evaluation (Section 3).
func SolveDistributed(k Kernel, pts *Particles, p Params, cfg DistributedConfig) (*DistributedResult, error) {
	gpu := perfmodel.P100()
	if cfg.GPU == TitanV {
		gpu = perfmodel.TitanV()
	}
	out, err := dist.Run(dist.Config{
		Ranks:          cfg.Ranks,
		Params:         p,
		GPU:            gpu,
		OverlapComm:    cfg.OverlapComm,
		WorkersPerRank: cfg.WorkersPerRank,
		Tracer:         cfg.Trace,
	}, k, pts)
	if err != nil {
		return nil, err
	}
	res := &DistributedResult{Result: Result{Phi: out.Phi, Times: out.Times}}
	for i := range out.Ranks {
		res.RankTimes = append(res.RankTimes, out.Ranks[i].Times)
	}
	return res, nil
}

// TreecodeVariant selects among the three barycentric treecode schemes:
// the paper's particle-cluster BLTC, and the cluster-particle and
// cluster-cluster (dual tree traversal) schemes its conclusions list as
// future work (refs [30]-[32]).
type TreecodeVariant string

const (
	// ParticleCluster compresses the source side with modified charges
	// (the paper's BLTC).
	ParticleCluster TreecodeVariant = "pc"
	// ClusterParticle compresses the target side with proxy potentials
	// delivered by a downward interpolation pass.
	ClusterParticle TreecodeVariant = "cp"
	// ClusterCluster compresses both sides; well-separated cluster pairs
	// interact proxy-to-proxy (the dual-tree BLDTT scheme).
	ClusterCluster TreecodeVariant = "cc"
)

// SolveVariant computes the potentials with the selected treecode variant
// on the CPU backend. All variants are kernel-independent and share
// accuracy characteristics; they differ in how the far field is
// compressed and hence in operation counts.
func SolveVariant(v TreecodeVariant, k Kernel, targets, sources *Particles, p Params) ([]float64, error) {
	res, err := variants.Run(string(v), k, targets, sources, p)
	if err != nil {
		return nil, err
	}
	return res.Phi, nil
}

// FieldResult holds potentials and potential gradients at every target in
// input order. The force on a particle with charge q is F = -q * grad phi
// (or +q*G*m gradients for gravity, depending on sign convention).
type FieldResult struct {
	Phi        []float64
	GX, GY, GZ []float64
	Times      PhaseTimes
}

// SolveWithField computes potentials *and* their gradients with the
// treecode on the CPU backend. The kernel must provide an analytic
// gradient: every built-in kernel constructor's does, a KernelFunc kernel
// does not (SolveWithField returns an error for it). Gradients reuse the
// same modified charges as the potential, since the barycentric
// approximation interpolates in the source variable only:
//
//	grad phi(x) ~= sum_k grad_x G(x, s_k) qhat_k.
//
// The setup phase runs per call; to amortize it across repeated field
// evaluations (e.g. a dynamic simulation's timesteps), build a Plan once
// and call Plan.SolveWithField, which returns byte-identical results.
func SolveWithField(k Kernel, targets, sources *Particles, p Params) (*FieldResult, error) {
	gk, ok := k.(kernel.GradKernel)
	if !ok {
		return nil, fmt.Errorf("barytree: kernel %q provides no analytic gradient", k.Name())
	}
	pl, err := core.NewPlan(targets, sources, p)
	if err != nil {
		return nil, err
	}
	r := core.RunCPUFields(pl, gk, core.CPUOptions{})
	return &FieldResult{Phi: r.Phi, GX: r.GX, GY: r.GY, GZ: r.GZ, Times: r.Times}, nil
}

// DirectField computes exact potentials and gradients by O(N^2) summation.
func DirectField(k Kernel, targets, sources *Particles) (*FieldResult, error) {
	gk, ok := k.(kernel.GradKernel)
	if !ok {
		return nil, fmt.Errorf("barytree: kernel %q provides no analytic gradient", k.Name())
	}
	phi, gx, gy, gz := direct.Fields(gk, targets, sources)
	return &FieldResult{Phi: phi, GX: gx, GY: gy, GZ: gz}, nil
}

// DirectSum computes the exact potentials by O(N^2) summation on all
// available cores — the reference the treecode approximates (equation (1)).
func DirectSum(k Kernel, targets, sources *Particles) []float64 {
	return direct.SumParallel(k, targets, sources, 0)
}

// DirectSumAt computes the exact potentials only at the given target
// indices, the sampled reference the paper uses for error measurement on
// systems of 8M+ particles.
func DirectSumAt(k Kernel, targets *Particles, sample []int, sources *Particles) []float64 {
	return direct.SumAt(k, targets, sample, sources)
}

// RelErr2 returns the relative 2-norm error of approx against ref
// (equation (16) of the paper).
func RelErr2(ref, approx []float64) float64 { return metrics.RelErr2(ref, approx) }

// UniformCube returns n particles uniformly random in [-1,1]^3 with
// charges uniform on [-1,1] — the distribution of all the paper's
// experiments. The seed makes runs reproducible.
func UniformCube(n int, seed int64) *Particles {
	return particle.UniformCube(n, rand.New(rand.NewSource(seed)))
}

// PlummerSphere returns n equal-mass particles sampled from the Plummer
// model with scale radius a, a standard gravitational N-body distribution.
func PlummerSphere(n int, a float64, seed int64) *Particles {
	return particle.Plummer(n, a, rand.New(rand.NewSource(seed)))
}

// GaussianBlob returns n particles with coordinates drawn from N(0,
// sigma^2), exercising strongly non-uniform octrees.
func GaussianBlob(n int, sigma float64, seed int64) *Particles {
	return particle.GaussianBlob(n, sigma, rand.New(rand.NewSource(seed)))
}

// SampleIndices returns k distinct uniform indices in [0, n), sorted — a
// convenience for sampled error measurement on large systems. The seed
// fully determines the sample, so a recorded seed reproduces the exact
// error measurement.
func SampleIndices(n, k int, seed int64) []int {
	return metrics.SampleIndices(n, k, rand.New(rand.NewSource(seed)))
}
