package mpisim

import (
	"fmt"
	"reflect"
	"sync"

	"barytree/internal/trace"
)

// Window is a typed one-sided RMA window, the analogue of an MPI-3 memory
// window used with passive target synchronization. Each rank exposes a
// local slice; any rank may Lock a target rank's window, Get data with no
// involvement from the target, and Unlock. Creation is collective. The
// window is get-only: the LET exchange only ever reads remote trees.
//
// The element size used for the communication cost model is derived from T.
type Window[T any] struct {
	shared   *winShared[T]
	elemSize int
}

type winShared[T any] struct {
	data  [][]T
	locks []sync.Mutex

	attachMu   sync.Mutex
	attachCond *sync.Cond
	attached   int
	aborted    bool
}

// abort releases ranks blocked waiting for all peers to attach (used when
// another rank panicked mid-collective).
func (ws *winShared[T]) abort() {
	ws.attachMu.Lock()
	ws.aborted = true
	ws.attachCond.Broadcast()
	ws.attachMu.Unlock()
}

// NewWindow collectively creates a window exposing each rank's local slice.
// Every rank must call NewWindow in the same order with the same type T;
// windows are matched across ranks by creation order, exactly like MPI
// window creation over a communicator. The local slice is shared, not
// copied: local writes become visible to remote Gets, matching passive
// RMA semantics at barrier granularity.
func NewWindow[T any](r *Rank, local []T) *Window[T] {
	seq := r.winSeq
	r.winSeq++

	c := r.comm
	c.winMu.Lock()
	if c.winAborted {
		c.winMu.Unlock()
		panic("mpisim: window creation aborted because a rank panicked")
	}
	raw, ok := c.windows[seq]
	if !ok {
		ws := &winShared[T]{
			data:  make([][]T, c.size),
			locks: make([]sync.Mutex, c.size),
		}
		ws.attachCond = sync.NewCond(&ws.attachMu)
		c.windows[seq] = ws
		raw = ws
	}
	c.winMu.Unlock()

	ws, ok := raw.(*winShared[T])
	if !ok {
		panic(fmt.Sprintf("mpisim: window %d created with mismatched element types across ranks", seq))
	}

	ws.attachMu.Lock()
	ws.data[r.id] = local
	ws.attached++
	if ws.attached == c.size {
		ws.attachCond.Broadcast()
	} else {
		for ws.attached < c.size && !ws.aborted {
			ws.attachCond.Wait()
		}
	}
	aborted := ws.aborted
	ws.attachMu.Unlock()
	if aborted {
		panic("mpisim: window creation aborted because a rank panicked")
	}

	var zero T
	return &Window[T]{shared: ws, elemSize: int(reflect.TypeOf(zero).Size())}
}

// SizeAt returns the length of the slice exposed by the target rank.
func (w *Window[T]) SizeAt(target int) int { return len(w.shared.data[target]) }

// Lock acquires the passive-target lock on the target rank's window
// (exclusive; MPI's MPI_Win_lock).
func (w *Window[T]) Lock(target int) { w.shared.locks[target].Lock() }

// Unlock releases the passive-target lock (MPI_Win_unlock). All operations
// issued while holding the lock are complete when Unlock returns.
func (w *Window[T]) Unlock(target int) { w.shared.locks[target].Unlock() }

// Get copies len(dst) elements starting at offset from the target rank's
// window into dst, reserving the origin NIC for the transfer and advancing
// the origin's clock to its completion. With an idle link this is the
// classic inline advance by TransferTime; with nonblocking operations
// still in flight the transfer queues behind them, so synchronous and
// asynchronous traffic share one occupancy timeline. A rank's gets from
// itself bypass the NIC and are free. The caller must hold the target's
// lock.
func (w *Window[T]) Get(r *Rank, target, offset int, dst []T) {
	src := w.shared.data[target]
	if offset < 0 || offset+len(dst) > len(src) {
		panic(fmt.Sprintf("mpisim: Get [%d,%d) out of window bounds [0,%d) on rank %d",
			offset, offset+len(dst), len(src), target))
	}
	copy(dst, src[offset:offset+len(dst)])
	nbytes := len(dst) * w.elemSize
	r.Stats.Gets++
	r.Stats.GetBytes += int64(nbytes)
	start := r.Clock.Now()
	if target != r.id {
		_, completion := r.nic.Enqueue(start, r.comm.net.TransferTime(r.id, target, nbytes))
		r.Clock.AdvanceTo(completion)
		r.Stats.RMASeconds += r.Clock.Now() - start
	}
	r.Tracer.Span("rma.get", trace.CatComm, r.id, trace.TrackNet, start, r.Clock.Now(),
		trace.A("target", target), trace.A("bytes", nbytes))
	r.Tracer.Add("rma.get_bytes", float64(nbytes))
}

// GetAll locks, gets the target's entire window into a new slice, and
// unlocks — one complete passive-target access epoch. It is the common
// "fetch the whole tree array" pattern of LET construction. The epoch is
// traced as an "rma.epoch" span enclosing the get.
func (w *Window[T]) GetAll(r *Rank, target int) []T {
	dst := make([]T, w.SizeAt(target))
	start := r.Clock.Now()
	w.Lock(target)
	w.Get(r, target, 0, dst)
	w.Unlock(target)
	r.Tracer.Span("rma.epoch", trace.CatComm, r.id, trace.TrackNet, start, r.Clock.Now(),
		trace.A("target", target), trace.A("ops", 1))
	return dst
}
