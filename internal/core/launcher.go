package core

import (
	"math"

	"barytree/internal/device"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/tree"
)

// Launcher queues batch/cluster potential kernels on a simulated device,
// cycling asynchronous streams and advancing the host clock by the launch
// overhead, exactly as the paper's CPU loop over the interaction lists
// does. Both the single-device driver and the distributed driver (which
// additionally launches kernels against LET data) are built on it.
type Launcher struct {
	Dev       *device.Device
	Host      *perfmodel.Clock
	Kernel    kernel.Kernel
	Streams   int
	Sync      bool
	Precision device.Precision
	ModelOnly bool
	// DataReady is the completion time of the HtD transfer the kernels
	// depend on.
	DataReady float64

	tiles     []kernel.Sized[kernel.Tile]
	f32Tiles  []kernel.Sized[kernel.F32Tile]
	acc       []float64 // host-block accumulators, one per target of a launch
	f32       f32Scratch
	rate      float64
	capacity  float64
	perEval   float64
	syncReady float64
	launch    int
}

// NewLauncher prepares a launcher for the compute phase. streams <= 0
// selects the device default.
func NewLauncher(dev *device.Device, host *perfmodel.Clock, k kernel.Kernel,
	streams int, sync bool, prec device.Precision, modelOnly bool, dataReady float64) *Launcher {

	if streams <= 0 {
		streams = dev.Spec.Streams
	}
	l := &Launcher{
		Dev:       dev,
		Host:      host,
		Kernel:    k,
		Streams:   streams,
		Sync:      sync,
		Precision: prec,
		ModelOnly: modelOnly,
		DataReady: dataReady,
		rate:      dev.Spec.EffectiveFlopRate(),
		capacity:  float64(dev.Spec.ThreadCapacity()),
		perEval:   k.Cost(kernel.ArchGPU) + 2,
	}
	// Resolve the tiles once for the whole compute phase; every kernel
	// body launched below dispatches once per source block and group of
	// targets, not per source.
	if prec == device.FP32 {
		l.rate *= dev.Spec.FP32Speedup
		f32, ok := k.(kernel.F32Kernel)
		if !ok && !modelOnly {
			panic("core: FP32 requested but kernel does not implement kernel.F32Kernel")
		}
		if ok {
			l.f32Tiles = kernel.F32Tiles(f32)
		}
	} else {
		l.tiles = kernel.Tiles(k)
	}
	return l
}

// f32Scratch holds one launch's targets rounded to float32 and their
// float32 accumulators.
type f32Scratch struct {
	tx, ty, tz, acc []float32
}

// queue advances the host clock for one launch and returns the kernel's
// earliest device-side start; in Sync mode the host also waits for the
// kernel itself. label names the kernel in the trace.
func (l *Launcher) queue(label string, work float64, grid, block int) (device.LaunchSpec, float64) {
	spec := device.LaunchSpec{
		Stream: l.launch % l.Streams,
		Grid:   grid,
		Block:  block,
		FlopEq: work,
		Label:  label,
	}
	l.launch++
	l.Host.Advance(l.Dev.Spec.LaunchOverheadHost)
	submit := math.Max(l.Host.Now(), l.DataReady)
	if l.Sync {
		submit = math.Max(submit, l.syncReady)
		u := float64(grid*block) / l.capacity
		if u > 1 {
			u = 1
		}
		if u <= 0 {
			u = 1 / l.capacity
		}
		done := submit + l.Dev.Spec.LaunchLatencyDevice + work/(l.rate*u)
		l.syncReady = done
		l.Host.AdvanceTo(done)
	}
	return spec, submit
}

// LaunchDirect queues one batch-cluster direct sum kernel: targets
// [bLo, bLo+nb) of tg against source particles [cLo, cHi) of src, with one
// modeled thread block per target and atomic accumulation into phi (batch
// target order).
func (l *Launcher) LaunchDirect(tg *particle.Set, bLo, nb int, src *particle.Set, cLo, cHi int, phi *device.AccumBuffer) {
	l.launchBlock("direct", tg, bLo, nb, src.X[cLo:cHi], src.Y[cLo:cHi], src.Z[cLo:cHi], src.Q[cLo:cHi], phi)
}

// LaunchApprox queues one batch-cluster approximation kernel: targets
// [bLo, bLo+nb) against a cluster's Chebyshev points px/py/pz with modified
// charges qhat (nil in model-only runs).
func (l *Launcher) LaunchApprox(tg *particle.Set, bLo, nb int, px, py, pz, qhat []float64, phi *device.AccumBuffer) {
	l.launchBlock("approx", tg, bLo, nb, px, py, pz, qhat, phi)
}

// launchBlock queues one kernel of targets [bLo, bLo+nb) against a source
// block: the modeled spec has one thread block per target, while the host
// runs one block per widest-tile group of targets. Each host block
// cascades its targets through the tiles into zeroed accumulators and adds
// each target's total into phi once. A block total accumulated from +0
// under round-to-nearest is never -0, so 0 + total == total bit for bit
// and every target receives exactly the sum the CPU driver adds for this
// list entry. Host blocks cut the targets exactly where one cascade over
// all nb targets would, and they write disjoint slots of the launcher's
// scratch, which launches reuse because each runs to completion before
// the next is queued.
func (l *Launcher) launchBlock(label string, tg *particle.Set, bLo, nb int, sx, sy, sz, q []float64, phi *device.AccumBuffer) {
	ns := len(sx)
	work := float64(nb) * float64(ns) * l.perEval
	spec, submit := l.queue(label, work, nb, min(ns, 1024))
	if l.ModelOnly {
		l.Dev.LaunchBlocks(spec, submit, nb, nil)
		return
	}
	w := l.reserve(nb)
	fn := func(block int) {
		lo := block * w
		hi := min(lo+w, nb)
		if l.f32Tiles != nil {
			l.hostBlockF32(tg, bLo+lo, bLo+hi, sx, sy, sz, q, phi, lo)
		} else {
			l.hostBlock(tg, bLo+lo, bLo+hi, sx, sy, sz, q, phi, lo)
		}
	}
	l.Dev.LaunchBlocks(spec, submit, (nb+w-1)/w, fn)
}

// reserve grows the host-block scratch to nb targets and returns the
// host-block width: the widest tile's.
func (l *Launcher) reserve(nb int) int {
	if l.f32Tiles != nil {
		if len(l.f32.acc) < nb {
			l.f32 = f32Scratch{make([]float32, nb), make([]float32, nb), make([]float32, nb), make([]float32, nb)}
		}
		return l.f32Tiles[0].Width
	}
	if len(l.acc) < nb {
		l.acc = make([]float64, nb)
	}
	return l.tiles[0].Width
}

// hostBlock evaluates targets [ti, tj) against one source block and adds
// the totals into phi; s is the block's first scratch slot.
//
//hot:path
func (l *Launcher) hostBlock(tg *particle.Set, ti, tj int, sx, sy, sz, q []float64, phi *device.AccumBuffer, s int) {
	acc := l.acc[s : s+tj-ti]
	clear(acc)
	kernel.Accumulate(l.tiles, tg.X[ti:tj], tg.Y[ti:tj], tg.Z[ti:tj], sx, sy, sz, q, acc)
	for i, v := range acc {
		phi.Add(ti+i, v)
	}
}

// hostBlockF32 is hostBlock in single precision: the targets are rounded
// to float32 once, as the fp32 device kernel loads them.
//
//hot:path
func (l *Launcher) hostBlockF32(tg *particle.Set, ti, tj int, sx, sy, sz, q []float64, phi *device.AccumBuffer, s int) {
	n := tj - ti
	tx, ty, tz, acc := l.f32.tx[s:s+n], l.f32.ty[s:s+n], l.f32.tz[s:s+n], l.f32.acc[s:s+n]
	for i := range acc {
		tx[i], ty[i], tz[i] = float32(tg.X[ti+i]), float32(tg.Y[ti+i]), float32(tg.Z[ti+i])
		acc[i] = 0
	}
	kernel.Cascade(l.f32Tiles, 0, n, func(tile kernel.F32Tile, i, j int) {
		tile(tx[i:j], ty[i:j], tz[i:j], sx, sy, sz, q, acc[i:j])
	})
	for i, v := range acc {
		phi.Add(ti+i, float64(v))
	}
}

// LaunchChargeKernels is a distributed rank's charge pass over its own
// cluster data: it queues the two preprocessing kernels for every node of
// t (see launchCharges) and leaves the modified charges of the tree's own
// charges in cd.Qhat, which it (re)allocates with one slot per node. The
// values come from the host charge pass, run over every node under the
// device's worker bound. In model-only mode the launches are recorded for
// timing only and every cd.Qhat[i] stays nil.
func LaunchChargeKernels(cd *ClusterData, t *tree.Tree, dev *device.Device,
	hc *perfmodel.Clock, dataReady float64, streams int, modelOnly bool) {

	launchCharges(cd, t, dev, hc, dataReady, streams)
	if modelOnly {
		cd.Qhat = make([][]float64, len(t.Nodes))
		return
	}
	cd.Qhat = cd.qhatSlots(len(t.Nodes))
	cd.chargeNodes(t, t.Particles.Q, cd.Qhat, everyNode(len(t.Nodes)), dev.Workers())
}

// launchCharges queues the two preprocessing kernels for every node of the
// source tree (Section 3.2), for timing only. The modeled launches are the
// paper's: kernel 1 computes the intermediate quantities with one block
// per particle and threads over the degree, kernel 2 each modified charge
// with one block per Chebyshev point and threads over the particles. The
// values they stand for come from the host charge pass
// (ClusterData.chargeNodes), which the caller runs over every node:
// remote ranks read a rank's charges through its LET, and the paper's GPU
// charges every cluster.
func launchCharges(cd *ClusterData, t *tree.Tree, dev *device.Device,
	hc *perfmodel.Clock, dataReady float64, streams int) {

	if streams <= 0 {
		streams = dev.Spec.Streams
	}
	n := cd.Degree
	m := n + 1
	launch := 0
	for ni := range t.Nodes {
		nc := t.Nodes[ni].Count()
		p1, p2 := chargeWork(n, nc)

		hc.Advance(dev.Spec.LaunchOverheadHost)
		dev.Launch(device.LaunchSpec{
			Stream: launch % streams,
			Grid:   nc,
			Block:  m,
			FlopEq: p1,
			Label:  "charges.pass1",
		}, math.Max(hc.Now(), dataReady), nil)
		launch++

		hc.Advance(dev.Spec.LaunchOverheadHost)
		dev.Launch(device.LaunchSpec{
			Stream: launch % streams,
			Grid:   cd.Grids[ni].NumPoints(),
			Block:  min(nc, 1024),
			FlopEq: p2,
			Label:  "charges.pass2",
		}, math.Max(hc.Now(), dataReady), nil)
		launch++
	}
}
