// Package perfmodel holds the calibrated performance model that converts
// exactly-counted work (kernel evaluations, tree operations, bytes moved,
// messages sent) into modeled wall-clock seconds for the architectures of
// the paper: NVIDIA Titan V and P100 GPUs, a 6-core Xeon X5650 CPU, and the
// InfiniBand fabric of SDSC Comet.
//
// Rationale (see DESIGN.md): a pure-Go, stdlib-only reproduction cannot run
// on real GPUs or MPI clusters, so the BLTC runs functionally on the host
// while every unit of work is counted. The model is deliberately simple and
// fully documented: peak throughputs come from published hardware specs,
// and a single efficiency factor per architecture class is calibrated so
// that the headline ratios of the paper (GPU >= 100x a 6-core CPU on the
// BLTC; Yukawa/Coulomb ~1.8x CPU and ~1.5x GPU; ~25% gain from async
// streams) are reproduced. Absolute seconds are therefore model outputs,
// while error values and interaction counts are genuine.
package perfmodel

import "fmt"

// Clock is a virtual clock measuring modeled seconds. Each MPI rank owns
// one; the device and network models advance it.
type Clock struct {
	now float64
}

// Now returns the current modeled time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by dt seconds (dt < 0 panics).
func (c *Clock) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("perfmodel: negative clock advance %g", dt))
	}
	c.now += dt
}

// AdvanceTo moves the clock forward to time t if t is in the future; a past
// t leaves the clock unchanged (used to sync with device completion times).
func (c *Clock) AdvanceTo(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Phase identifies the three phases of the paper's time accounting
// (Section 4): setup, precompute, and compute.
type Phase int

const (
	// PhaseSetup covers local tree and batch construction, LET construction
	// and communication, and interaction-list creation.
	PhaseSetup Phase = iota
	// PhasePrecompute covers the modified-charge kernels and their
	// transfers.
	PhasePrecompute
	// PhaseCompute covers potential evaluation and the final transfer.
	PhaseCompute

	numPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseSetup:
		return "setup"
	case PhasePrecompute:
		return "precompute"
	case PhaseCompute:
		return "compute"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Phases returns the phases in execution order (setup, precompute,
// compute); the trace profile uses it to order its phase table.
func Phases() []Phase {
	return []Phase{PhaseSetup, PhasePrecompute, PhaseCompute}
}

// PhaseNames returns the String names of Phases in execution order. Trace
// spans of category "phase" use exactly these names, so the list keys the
// span taxonomy of docs/observability.md to this package's accounting.
func PhaseNames() []string {
	ps := Phases()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

// PhaseTimes records modeled seconds per phase.
type PhaseTimes [numPhases]float64

// Total returns the sum over phases.
func (p PhaseTimes) Total() float64 {
	var t float64
	for _, v := range p {
		t += v
	}
	return t
}

// Add returns the phase-wise sum of p and q.
func (p PhaseTimes) Add(q PhaseTimes) PhaseTimes {
	for i := range p {
		p[i] += q[i]
	}
	return p
}

// Max returns the phase-wise maximum of p and q. The run time of a
// barrier-separated multi-rank phase is the maximum of the per-rank phase
// durations, so the modeled total for P ranks is Max over ranks, then Total.
func (p PhaseTimes) Max(q PhaseTimes) PhaseTimes {
	for i := range p {
		if q[i] > p[i] {
			p[i] = q[i]
		}
	}
	return p
}

// String implements fmt.Stringer.
func (p PhaseTimes) String() string {
	return fmt.Sprintf("setup=%.4gs precompute=%.4gs compute=%.4gs total=%.4gs",
		p[PhaseSetup], p[PhasePrecompute], p[PhaseCompute], p.Total())
}

// CPUSpec models a multicore CPU node.
type CPUSpec struct {
	// Name identifies the modeled part in reports.
	Name string
	// Cores is the number of physical cores the OpenMP loops use.
	Cores int
	// FlopEqRate is the sustained per-core rate, in kernel flop-equivalents
	// per second, achieved by the portable-C-style inner loops of the CPU
	// treecode. Kernel costs (see internal/kernel) already weight divides,
	// square roots and exponentials, so this rate is close to
	// clock * flops-per-cycle for simple FMA streams.
	FlopEqRate float64
	// TreeOpRate is particle scans/moves per second during tree build and
	// partitioning (memory-bound pointer-free passes).
	TreeOpRate float64
	// MACTestRate is batch/cluster MAC evaluations per second during
	// interaction-list construction.
	MACTestRate float64
}

// ParallelFlopRate returns the aggregate flop-equivalent rate with all
// cores active.
func (c CPUSpec) ParallelFlopRate() float64 { return float64(c.Cores) * c.FlopEqRate }

// XeonX5650 is the paper's CPU baseline: 6-core 2.67 GHz Westmere-EP,
// portable C compiled with PGI -O3, OpenMP over target batches.
func XeonX5650() CPUSpec {
	return CPUSpec{
		Name:  "Intel Xeon X5650 (6 cores, 2.67 GHz)",
		Cores: 6,
		// ~1 flop-equivalent per cycle per core sustained on the kernel
		// inner loops (scalar fp64 with the div/sqrt/exp weights folded
		// into the kernel cost table).
		FlopEqRate: 2.67e9,
		// Pointer-light but memory-bound passes; ~50M particle visits/s
		// is representative of a portable serial octree build on this
		// class of CPU.
		TreeOpRate:  50e6,
		MACTestRate: 25e6,
	}
}

// GPUSpec models a GPU for both throughput and transfer accounting.
type GPUSpec struct {
	// Name identifies the modeled part in reports.
	Name string
	// SMs, FP64LanesPerSM and ClockGHz determine peak fp64 throughput
	// (FMA counted as two flops).
	SMs            int
	FP64LanesPerSM int
	ClockGHz       float64
	// Efficiency is the achieved fraction of peak fp64 throughput (in
	// flop-equivalents) on the BLTC's batch/cluster kernels; calibrated so
	// the GPU/CPU treecode ratio lands in the >=100x band the paper
	// reports for the Titan V vs the X5650.
	Efficiency float64
	// FP32Speedup multiplies the throughput when kernels run in single
	// precision (fp64:fp32 = 1:2 on both Titan V and P100).
	FP32Speedup float64
	// MaxThreadsPerSM bounds resident threads for the occupancy model.
	MaxThreadsPerSM int
	// Streams is the number of asynchronous streams the implementation
	// cycles through (4 on the paper's GPUs).
	Streams int
	// LaunchOverheadHost is host-side seconds consumed queueing one kernel
	// launch (the cost that async streams hide).
	LaunchOverheadHost float64
	// LaunchLatencyDevice is seconds from queue to device-side start when
	// the stream is idle.
	LaunchLatencyDevice float64
	// HtoDBandwidth and DtoHBandwidth are PCIe transfer rates in bytes/s,
	// one per copy-engine direction.
	HtoDBandwidth float64
	DtoHBandwidth float64
	// TransferLatency is fixed seconds per host/device transfer.
	TransferLatency float64
}

// PeakFlops returns the peak fp64 rate in flops/s (FMA counted as 2).
func (g GPUSpec) PeakFlops() float64 {
	return float64(g.SMs) * float64(g.FP64LanesPerSM) * 2 * g.ClockGHz * 1e9
}

// EffectiveFlopRate returns the sustained flop-equivalent rate at full
// occupancy.
func (g GPUSpec) EffectiveFlopRate() float64 { return g.PeakFlops() * g.Efficiency }

// ThreadCapacity returns the number of resident threads at full occupancy.
func (g GPUSpec) ThreadCapacity() int { return g.SMs * g.MaxThreadsPerSM }

// TitanV is the GPU of the paper's Figure 4 (single-GPU vs single-CPU).
func TitanV() GPUSpec {
	return GPUSpec{
		Name:           "NVIDIA Titan V",
		SMs:            80,
		FP64LanesPerSM: 32,
		ClockGHz:       1.455, // boost clock; peak 7.45 Tflop/s fp64
		// Calibrated so the BLTC's GPU/CPU compute ratio against the
		// portable-C-modeled X5650 lands in the >=100x band of Figure 4
		// (~1.6 Tflop-eq/s sustained; the kernel cost table counts
		// div/sqrt/exp as multiple flop-equivalents, so this corresponds
		// to ~12% of peak raw fp64).
		Efficiency:          0.22,
		FP32Speedup:         2,
		MaxThreadsPerSM:     2048,
		Streams:             4,
		LaunchOverheadHost:  9e-6,
		LaunchLatencyDevice: 4e-6,
		HtoDBandwidth:       11e9, // PCIe 3.0 x16 effective
		DtoHBandwidth:       11e9,
		TransferLatency:     12e-6,
	}
}

// P100 is the GPU of the paper's Figures 5 and 6 (SDSC Comet, 4 per node).
func P100() GPUSpec {
	return GPUSpec{
		Name:           "NVIDIA Tesla P100",
		SMs:            56,
		FP64LanesPerSM: 32,
		ClockGHz:       1.48, // boost; peak 5.3 Tflop/s fp64
		// Calibrated against the absolute run times of Figures 5 and 6
		// (e.g. ~380s modeled for 64M particles on one P100 at theta=0.8,
		// n=8, NL=NB=4000, vs ~430s implied by the paper's strong-scaling
		// efficiency figures).
		Efficiency:          0.10,
		FP32Speedup:         2,
		MaxThreadsPerSM:     2048,
		Streams:             4,
		LaunchOverheadHost:  9e-6,
		LaunchLatencyDevice: 4e-6,
		HtoDBandwidth:       11e9,
		DtoHBandwidth:       11e9,
		TransferLatency:     12e-6,
	}
}

// NetworkSpec models the interconnect for the MPI RMA cost accounting.
type NetworkSpec struct {
	// Name identifies the modeled fabric in reports.
	Name string
	// Latency is seconds per one-sided operation (lock+get/put+flush).
	Latency float64
	// Bandwidth is bytes/s for bulk transfers.
	Bandwidth float64
	// IntraNodeBandwidth and IntraNodeLatency are used between ranks on
	// the same node (the paper runs 4 GPUs per node).
	IntraNodeBandwidth float64
	IntraNodeLatency   float64
	// RanksPerNode determines which pairs are intra-node.
	RanksPerNode int
}

// CometIB models SDSC Comet's FDR InfiniBand with 4 GPUs per node. The
// latency is per one-sided operation and includes the passive-target
// lock/flush/unlock epoch, which costs tens of microseconds in practice —
// far more than the wire latency — and is what makes the paper's setup
// share grow with the rank count (Figure 6(c,d)).
func CometIB() NetworkSpec {
	return NetworkSpec{
		Name:               "Comet FDR InfiniBand",
		Latency:            25e-6,
		Bandwidth:          5e9,
		IntraNodeBandwidth: 15e9,
		IntraNodeLatency:   8e-6,
		RanksPerNode:       4,
	}
}

// TransferTime returns the modeled seconds to move n bytes between ranks a
// and b (one-sided; the origin pays the cost).
func (ns NetworkSpec) TransferTime(a, b, nbytes int) float64 {
	if a == b {
		return 0
	}
	lat, bw := ns.Latency, ns.Bandwidth
	if ns.RanksPerNode > 0 && a/ns.RanksPerNode == b/ns.RanksPerNode {
		lat, bw = ns.IntraNodeLatency, ns.IntraNodeBandwidth
	}
	return lat + float64(nbytes)/bw
}

// NICTimeline is the occupancy timeline of one origin-side network
// interface. Nonblocking one-sided operations issued by a rank do not
// advance its clock inline; instead each reserves the link here, so
// concurrent in-flight transfers serialize on link bandwidth (the NIC
// serves one transfer at a time) rather than all magically proceeding at
// full rate. The origin's clock is only advanced when it *waits* on a
// completion, which is what makes communication/compute overlap a modeled
// reality instead of a bookkeeping subtraction.
//
// Each rank owns one timeline; transfer durations come from
// NetworkSpec.TransferTime. The zero value is an idle link at time zero.
type NICTimeline struct {
	free float64
}

// Enqueue reserves the link for one transfer of the given duration issued
// at modeled time now. The transfer starts when the link is free — no
// earlier than now — and occupies it through start+duration. It returns
// the transfer's start and completion times; the link is busy until the
// returned completion.
func (n *NICTimeline) Enqueue(now, duration float64) (start, completion float64) {
	if duration < 0 {
		panic(fmt.Sprintf("perfmodel: negative transfer duration %g", duration))
	}
	start = now
	if n.free > start {
		start = n.free
	}
	completion = start + duration
	n.free = completion
	return start, completion
}
