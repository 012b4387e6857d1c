// Package device simulates the GPU execution substrate that the paper
// drives through OpenACC: kernels launched on asynchronous streams as grids
// of thread blocks, host/device transfers over copy engines, and atomic
// accumulation into device memory.
//
// The simulator has two independent halves:
//
//   - Functional execution: a launch's block function runs for real, in
//     parallel over a host worker pool, so every number the treecode
//     produces is genuinely computed through the same block-per-target /
//     reduction-over-threads structure the paper describes (Figure 3).
//
//   - Timing: every launch is recorded with its submission time, modeled
//     work (flop-equivalents), and parallelism, and a fluid-flow scheduler
//     replays the stream timelines against the device's modeled throughput.
//     Streams execute their kernels in order; kernels from different
//     streams share the device proportionally to their parallelism, capped
//     by total throughput. This reproduces the two GPU effects the paper
//     discusses: async streams hiding launch overhead (~25% of compute
//     time in the 1M-particle case) and small kernels failing to saturate
//     the device (the growing precompute fraction in Figure 6(c,d)).
//
// Modeled time never depends on host wall-clock, so results are
// deterministic and machine-independent.
package device

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"barytree/internal/perfmodel"
	"barytree/internal/pool"
	"barytree/internal/trace"
)

// Precision selects the arithmetic width of device kernels. The paper's
// code is double precision; FP32 implements the mixed-precision extension
// listed as future work.
type Precision int

const (
	// FP64 is IEEE double precision (the paper's setting).
	FP64 Precision = iota
	// FP32 is IEEE single precision (mixed-precision extension).
	FP32
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	if p == FP32 {
		return "fp32"
	}
	return "fp64"
}

// Device is one simulated GPU.
type Device struct {
	Spec      perfmodel.GPUSpec
	Precision Precision

	// Tracer, when non-nil, receives one span per kernel launch (emitted at
	// Drain, when the stream schedule is known) and per copy-engine
	// transfer, plus activity counters. Set it before the first launch; it
	// is read without synchronization.
	Tracer *trace.Tracer
	// Rank attributes this device's spans to an MPI rank (0 by default).
	Rank int

	workers int

	mu        sync.Mutex
	launches  []launchRecord
	traced    int     // launches already exported as spans this phase
	phaseBase float64 // host time at the start of the current phase window
	htodReady float64 // copy-engine ready times (absolute modeled seconds)
	dtohReady float64
	stats     Stats
}

// Stats accumulates device activity counters across the device's lifetime.
type Stats struct {
	Launches  int
	FlopEq    float64
	BytesHtoD int64
	BytesDtoH int64
	Transfers int
}

type launchRecord struct {
	stream int
	submit float64 // earliest device-side start (absolute modeled seconds)
	work   float64 // flop-equivalents
	grid   int     // thread blocks (grid*block drives the occupancy model)
	block  int     // threads per block
	label  string  // kernel name for tracing ("" -> "kernel")
}

// New returns a simulated device with the given spec. workers <= 0 selects
// GOMAXPROCS host goroutines for functional execution.
func New(spec perfmodel.GPUSpec, workers int) *Device {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if spec.Streams < 1 {
		spec.Streams = 1
	}
	return &Device{Spec: spec, workers: workers}
}

// Workers returns the bound on host goroutines for functional execution.
func (d *Device) Workers() int { return d.workers }

// StatsSnapshot returns a copy of the lifetime counters.
func (d *Device) StatsSnapshot() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// effectiveRate returns the sustained flop-equivalent rate, accounting for
// precision.
func (d *Device) effectiveRate() float64 {
	r := d.Spec.EffectiveFlopRate()
	if d.Precision == FP32 {
		r *= d.Spec.FP32Speedup
	}
	return r
}

// LaunchSpec describes one kernel launch for the timing model.
type LaunchSpec struct {
	// Stream is the asynchronous stream index; the treecode cycles
	// 0..Spec.Streams-1 as it walks the interaction lists.
	Stream int
	// Grid is the number of thread blocks; Block the threads per block.
	Grid, Block int
	// FlopEq is the modeled work of the whole launch in flop-equivalents.
	FlopEq float64
	// Label names the kernel for tracing ("direct", "approx",
	// "charges.pass1", ...). An empty label traces as "kernel".
	Label string
}

// Launch functionally executes fn(block) for every block in [0, Grid) on
// the host worker pool and records the launch for the stream-timeline
// simulation. submit is the host modeled time at which the launch was
// queued (the caller advances its host clock by Spec.LaunchOverheadHost per
// launch; Launch adds the device-side launch latency). A nil fn records the
// launch for timing purposes only (model-only runs).
//
// Functional execution is synchronous from the caller's perspective —
// asynchrony exists only in modeled time — so block functions of a single
// launch may run concurrently with each other but not with other launches.
func (d *Device) Launch(spec LaunchSpec, submit float64, fn func(block int)) {
	d.LaunchBlocks(spec, submit, spec.Grid, fn)
}

// LaunchBlocks is Launch with the functional grid decoupled from the
// modeled one: the timing model records spec.Grid blocks exactly as Launch
// does, while fn executes over [0, fnGrid) host blocks. This lets a driver
// keep the modeled GPU geometry (one thread block per target, matching the
// paper's kernels and the occupancy/work accounting) while the host
// executes the same arithmetic in target-tiled form with fewer, wider
// blocks. The modeled timeline is byte-identical for byte-identical specs
// regardless of fnGrid.
func (d *Device) LaunchBlocks(spec LaunchSpec, submit float64, fnGrid int, fn func(block int)) {
	if spec.Grid < 0 || spec.Block <= 0 {
		panic(fmt.Sprintf("device: invalid launch geometry grid=%d block=%d", spec.Grid, spec.Block))
	}
	stream := spec.Stream % d.Spec.Streams
	d.mu.Lock()
	d.launches = append(d.launches, launchRecord{
		stream: stream,
		submit: submit + d.Spec.LaunchLatencyDevice,
		work:   spec.FlopEq,
		grid:   spec.Grid,
		block:  spec.Block,
		label:  spec.Label,
	})
	d.stats.Launches++
	d.stats.FlopEq += spec.FlopEq
	d.mu.Unlock()
	d.Tracer.Add("device.launches", 1)
	d.Tracer.Add("device.flop_eq", spec.FlopEq)

	if fn != nil {
		d.run(fnGrid, fn)
	}
}

// run executes fn over the grid with the worker pool. Tiny grids run
// serially: the goroutine handoff costs more than the work.
func (d *Device) run(grid int, fn func(block int)) {
	workers := d.workers
	if grid < 4 {
		workers = 1
	}
	pool.For(grid, workers, fn)
}

// BeginPhase marks the start of a phase window at host time t: subsequent
// Drain calls simulate only launches recorded after this point, and the
// copy engines cannot be busy before t.
func (d *Device) BeginPhase(t float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.launches = d.launches[:0]
	d.traced = 0
	d.phaseBase = t
	if d.htodReady < t {
		d.htodReady = t
	}
	if d.dtohReady < t {
		d.dtohReady = t
	}
}

// CopyIn models a host-to-device transfer of nbytes queued at host time t
// and returns its completion time. Transfers serialize on the HtoD copy
// engine but overlap with kernel execution.
func (d *Device) CopyIn(t float64, nbytes int64) float64 {
	d.mu.Lock()
	start := math.Max(t, d.htodReady)
	done := start + d.Spec.TransferLatency + float64(nbytes)/d.Spec.HtoDBandwidth
	d.htodReady = done
	d.stats.BytesHtoD += nbytes
	d.stats.Transfers++
	d.mu.Unlock()
	d.Tracer.Span("h2d", trace.CatTransfer, d.Rank, trace.TrackHtoD, start, done,
		trace.A("bytes", nbytes))
	d.Tracer.Add("device.bytes_h2d", float64(nbytes))
	return done
}

// CopyOut models a device-to-host transfer of nbytes queued at host time t
// and returns its completion time.
func (d *Device) CopyOut(t float64, nbytes int64) float64 {
	d.mu.Lock()
	start := math.Max(t, d.dtohReady)
	done := start + d.Spec.TransferLatency + float64(nbytes)/d.Spec.DtoHBandwidth
	d.dtohReady = done
	d.stats.BytesDtoH += nbytes
	d.stats.Transfers++
	d.mu.Unlock()
	d.Tracer.Span("d2h", trace.CatTransfer, d.Rank, trace.TrackDtoH, start, done,
		trace.A("bytes", nbytes))
	d.Tracer.Add("device.bytes_d2h", float64(nbytes))
	return done
}

// Drain simulates the device timeline for all launches recorded since
// BeginPhase and returns the modeled time at which the last kernel
// completes. If no launches were recorded it returns the phase base time.
// Drain is idempotent: calling it twice without new launches returns the
// same time. When a Tracer is attached, the first Drain covering a launch
// emits its kernel span (the per-kernel start/end is only known once the
// stream schedule is replayed).
func (d *Device) Drain() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	end, iv := simulate(d.launches, d.Spec.Streams, d.effectiveRate(), float64(d.Spec.ThreadCapacity()), d.phaseBase)
	if d.Tracer.Enabled() {
		for i := d.traced; i < len(d.launches); i++ {
			l := &d.launches[i]
			name := l.label
			if name == "" {
				name = "kernel"
			}
			d.Tracer.Span(name, trace.CatKernel, d.Rank, trace.StreamTrack(l.stream),
				iv[i].start, iv[i].end,
				trace.A("grid", l.grid), trace.A("block", l.block), trace.A("flop_eq", l.work))
		}
		d.traced = len(d.launches)
	}
	return end
}

// interval is one kernel's device-side execution window in the replayed
// schedule.
type interval struct {
	start, end float64
}

// simulate replays the fluid-flow stream schedule: per-stream FIFO order,
// proportional device sharing capped by each kernel's occupancy share
// u = threads/capacity, total rate capped at R. It returns the completion
// time of the last kernel and the execution interval of every launch
// (indexed like launches).
func simulate(launches []launchRecord, streams int, rate, capacity, base float64) (float64, []interval) {
	if len(launches) == 0 {
		return base, nil
	}
	// Per-stream FIFO queues of launch indices (submission order is append
	// order).
	queues := make([][]int, streams)
	for i, l := range launches {
		queues[l.stream] = append(queues[l.stream], i)
	}
	type active struct {
		remaining float64
		u         float64
		idx       int
	}
	iv := make([]interval, len(launches))
	heads := make([]int, streams)       // next kernel index per stream
	running := make([]*active, streams) // active kernel per stream (nil if idle)
	t := base
	done := 0
	for done < len(launches) {
		// Activate eligible heads.
		for s := 0; s < streams; s++ {
			if running[s] != nil || heads[s] >= len(queues[s]) {
				continue
			}
			ki := queues[s][heads[s]]
			k := launches[ki]
			if k.submit <= t {
				u := float64(k.grid*k.block) / capacity
				if u > 1 {
					u = 1
				}
				if u <= 0 {
					u = 1 / capacity // at least one thread's worth
				}
				running[s] = &active{remaining: k.work, u: u, idx: ki}
				iv[ki].start = math.Max(t, k.submit)
				heads[s]++
			}
		}
		// Sum occupancy over running kernels.
		var totalU float64
		nRunning := 0
		for s := 0; s < streams; s++ {
			if running[s] != nil {
				totalU += running[s].u
				nRunning++
			}
		}
		if nRunning == 0 {
			// Jump to the next submission.
			next := math.Inf(1)
			for s := 0; s < streams; s++ {
				if heads[s] < len(queues[s]) && launches[queues[s][heads[s]]].submit < next {
					next = launches[queues[s][heads[s]]].submit
				}
			}
			t = next
			continue
		}
		share := 1.0
		if totalU > 1 {
			share = 1 / totalU
		}
		// Next event: a completion or a submission that could activate an
		// idle stream.
		dt := math.Inf(1)
		for s := 0; s < streams; s++ {
			if running[s] != nil {
				k := running[s]
				r := rate * k.u * share
				if c := k.remaining / r; c < dt {
					dt = c
				}
			} else if heads[s] < len(queues[s]) {
				if c := launches[queues[s][heads[s]]].submit - t; c < dt {
					dt = c
				}
			}
		}
		if dt < 0 {
			dt = 0
		}
		// Advance.
		const eps = 1e-15
		for s := 0; s < streams; s++ {
			if running[s] == nil {
				continue
			}
			k := running[s]
			r := rate * k.u * share
			k.remaining -= r * dt
			if k.remaining <= eps*math.Max(1, k.u*rate) {
				iv[k.idx].end = t + dt
				running[s] = nil
				done++
			}
		}
		t += dt
	}
	return t, iv
}
