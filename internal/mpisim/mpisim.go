// Package mpisim is an in-process substitute for the MPI layer of the
// paper's distributed implementation: ranks run as goroutines inside one
// communicator, communicate through typed one-sided RMA windows with
// passive-target synchronization (lock / get / put / flush / unlock), and
// synchronize with barriers — the exact primitives the BLTC's locally
// essential tree construction uses (Section 3.1).
//
// Alongside the functional semantics, every communication operation
// advances the origin rank's virtual clock according to a network cost
// model (latency + bytes/bandwidth, with distinct intra-node parameters),
// so communication time is derived from exactly-counted traffic. Barriers
// synchronize the virtual clocks to their maximum, mirroring how
// barrier-separated phases aggregate across ranks on a real machine.
package mpisim

import (
	"fmt"
	"math"
	"sync"

	"barytree/internal/perfmodel"
	"barytree/internal/trace"
)

// Comm is a communicator: a fixed group of ranks with a shared network
// model. Create one with Run.
type Comm struct {
	size int
	net  perfmodel.NetworkSpec

	barrier *barrier

	winMu      sync.Mutex
	windows    map[int]any // creation-order id -> *winShared[T]
	winAborted bool        // set by abortAll; blocks further window creation
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Net returns the communicator's network model.
func (c *Comm) Net() perfmodel.NetworkSpec { return c.net }

// Rank is the per-goroutine handle to the communicator. Rank methods must
// only be called from the goroutine that owns the rank.
type Rank struct {
	comm *Comm
	id   int
	// Clock is the rank's virtual clock in modeled seconds. Computation
	// models advance it directly; communication and barriers advance it
	// through this package.
	Clock perfmodel.Clock

	// Tracer, when non-nil, receives one comm-category span per RMA
	// operation and per barrier, attributed to this rank. The tracer may
	// be shared by all ranks (it is internally synchronized); set it at
	// the start of the rank function, before any communication.
	Tracer *trace.Tracer

	winSeq int

	// nic is this rank's origin-side network-occupancy timeline: every
	// one-sided operation the rank issues reserves the link in issue
	// order, so concurrent in-flight gets serialize on link bandwidth.
	nic perfmodel.NICTimeline
	// pending holds the nonblocking requests issued and not yet flushed.
	pending []*Request
	// inflightBytes is the payload volume currently in flight.
	inflightBytes int64

	// Stats counts this rank's communication activity.
	Stats CommStats
}

// CommStats counts one rank's communication operations and volume.
type CommStats struct {
	// Gets counts the one-sided gets this rank originated (nonblocking
	// gets included).
	Gets int
	// IGets counts the nonblocking (Iget) operations among Gets.
	IGets int
	// GetBytes totals the payload moved by those operations.
	GetBytes int64
	// Barriers counts collective barrier participations.
	Barriers int
	// RMASeconds totals the modeled seconds this rank's clock advanced
	// inside RMA operations: synchronous Get transfers plus the stall
	// portion of Wait/Flush. In-flight wire time hidden under other work
	// is *not* counted, which is what makes comm/compute overlap
	// measurable from the executed timeline.
	RMASeconds float64
	// InflightPeakBytes is the high-water mark of nonblocking payload
	// bytes in flight at once on this rank's NIC.
	InflightPeakBytes int64
}

// ID returns the rank number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.size }

// Comm returns the communicator.
func (r *Rank) Comm() *Comm { return r.comm }

// Run creates a communicator of the given size and runs fn concurrently on
// every rank, returning the first non-nil error (all ranks are always
// joined). size must be >= 1. A panic in any rank is re-raised after all
// ranks stop.
func Run(size int, net perfmodel.NetworkSpec, fn func(r *Rank) error) error {
	if size < 1 {
		return fmt.Errorf("mpisim: communicator size must be >= 1, got %d", size)
	}
	c := &Comm{
		size:    size,
		net:     net,
		barrier: newBarrier(size),
		windows: map[int]any{},
	}
	errs := make([]error, size)
	panics := make([]any, size)
	var wg sync.WaitGroup
	for i := 0; i < size; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[id] = p
					// Release any ranks blocked in collectives (barriers
					// or window creation) so the program fails loudly
					// instead of deadlocking.
					c.abortAll()
				}
			}()
			errs[id] = fn(&Rank{comm: c, id: id})
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// aborter is implemented by collective structures that can be woken when a
// rank dies (see Run's panic recovery).
type aborter interface{ abort() }

// abortAll aborts the barrier, every window-creation wait, and all future
// window creation on this communicator.
func (c *Comm) abortAll() {
	c.barrier.abort()
	c.winMu.Lock()
	defer c.winMu.Unlock()
	c.winAborted = true
	for _, raw := range c.windows {
		if a, ok := raw.(aborter); ok {
			a.abort()
		}
	}
}

// Barrier blocks until every rank has entered it, then synchronizes the
// virtual clocks: all ranks leave with clock = max over ranks plus a small
// modeled barrier cost (log2(P) network latencies).
func (r *Rank) Barrier() {
	r.Stats.Barriers++
	cost := r.comm.net.Latency * math.Ceil(math.Log2(float64(r.comm.size)))
	if r.comm.size == 1 {
		r.Clock.Advance(0)
		return
	}
	start := r.Clock.Now()
	maxClock := r.comm.barrier.sync(r.Clock.Now())
	r.Clock.AdvanceTo(maxClock + cost)
	// The span width is this rank's modeled wait: early ranks show long
	// barrier spans, the straggler a short one — load imbalance at a
	// glance.
	r.Tracer.Span("barrier", trace.CatComm, r.id, trace.TrackNet, start, r.Clock.Now())
}

// barrier is a reusable sense-reversing barrier that also reduces the
// maximum of a float64 contributed by each rank.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	waiting int
	gen     int
	maxVal  float64
	result  float64
	aborted bool
}

func newBarrier(size int) *barrier {
	b := &barrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// sync enters the barrier contributing v and returns the maximum over all
// ranks' contributions for this generation.
func (b *barrier) sync(v float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		panic("mpisim: barrier aborted because a rank panicked")
	}
	gen := b.gen
	if v > b.maxVal {
		b.maxVal = v
	}
	b.waiting++
	if b.waiting == b.size {
		b.result = b.maxVal
		b.maxVal = math.Inf(-1)
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return b.result
	}
	for b.gen == gen && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		panic("mpisim: barrier aborted because a rank panicked")
	}
	return b.result
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
