package mpisim

import (
	"fmt"

	"barytree/internal/trace"
)

// This file is the nonblocking side of the RMA window API: Iget issues a
// one-sided get whose functional copy happens immediately (legal under
// passive-target semantics — the data was exposed before the barrier and
// the target is uninvolved) while its modeled completion time comes from
// the origin rank's network-occupancy timeline (perfmodel.NICTimeline).
// Concurrent in-flight gets therefore serialize on link bandwidth instead
// of each advancing the origin clock inline, and the clock only advances
// when the origin actually waits: Request.Wait and Rank.Flush move it to
// max(now, completion). Work the origin does between issue and wait hides
// communication, exactly the overlap the distributed pipeline exploits.

// Request is the completion handle of one nonblocking one-sided operation,
// the analogue of an MPI_Request from MPI_Rget. It is owned by the issuing
// rank; all methods must be called from that rank's goroutine. Every
// request must reach a Wait or a Rank.Flush before the origin relies on
// its modeled completion (the rmaleak analyzer enforces the local-path
// version of this contract).
type Request struct {
	r      *Rank
	target int
	bytes  int
	// issued is when the origin called Iget; start/completion bound the
	// transfer's occupancy of the origin NIC (start >= issued when earlier
	// transfers still hold the link).
	issued, start, completion float64
	done                      bool
}

// Bytes returns the payload size of the operation.
func (rq *Request) Bytes() int { return rq.bytes }

// Duration returns the modeled seconds the transfer occupies the origin
// NIC (what a synchronous Get would have charged the clock inline).
func (rq *Request) Duration() float64 { return rq.completion - rq.start }

// Done reports whether the request has been completed by Wait or Flush.
func (rq *Request) Done() bool { return rq.done }

// Iget copies len(dst) elements starting at offset from the target rank's
// window into dst and returns a completion handle. The caller must hold
// the target's lock while Iget runs (the copy is performed immediately);
// the returned request may be waited on after Unlock. The origin clock is
// not advanced: the transfer is queued on the origin's NIC timeline and
// the clock moves only when Wait or Flush observes the completion.
func (w *Window[T]) Iget(r *Rank, target, offset int, dst []T) *Request {
	src := w.shared.data[target]
	if offset < 0 || offset+len(dst) > len(src) {
		panic(fmt.Sprintf("mpisim: Iget [%d,%d) out of window bounds [0,%d) on rank %d",
			offset, offset+len(dst), len(src), target))
	}
	copy(dst, src[offset:offset+len(dst)])
	nbytes := len(dst) * w.elemSize
	r.Stats.Gets++
	r.Stats.IGets++
	r.Stats.GetBytes += int64(nbytes)
	now := r.Clock.Now()
	start, completion := now, now
	if target != r.id {
		start, completion = r.nic.Enqueue(now, r.comm.net.TransferTime(r.id, target, nbytes))
	}
	rq := &Request{r: r, target: target, bytes: nbytes,
		issued: now, start: start, completion: completion}
	r.pending = append(r.pending, rq)
	r.inflightBytes += int64(nbytes)
	if r.inflightBytes > r.Stats.InflightPeakBytes {
		// The counter accumulates increments of the per-rank high-water
		// mark, so its total is the sum over ranks of each rank's peak.
		r.Tracer.Add("rma.inflight_peak_bytes", float64(r.inflightBytes-r.Stats.InflightPeakBytes))
		r.Stats.InflightPeakBytes = r.inflightBytes
	}
	r.Tracer.Span("rma.iget", trace.CatComm, r.id, trace.TrackNet, start, completion,
		trace.A("target", target), trace.A("bytes", nbytes), trace.A("queued", now))
	r.Tracer.Add("rma.iget_bytes", float64(nbytes))
	return rq
}

// Wait blocks, in modeled time, until the request's transfer completes:
// the origin clock advances to max(now, completion). It returns the stall
// actually paid — zero when the transfer already finished under other work,
// which is the overlap win. Wait is idempotent; repeat calls return 0.
func (rq *Request) Wait() float64 {
	if rq.done {
		return 0
	}
	rq.done = true
	r := rq.r
	now := r.Clock.Now()
	stall := rq.completion - now
	if stall > 0 {
		r.Clock.AdvanceTo(rq.completion)
		r.Stats.RMASeconds += stall
	} else {
		stall = 0
	}
	r.inflightBytes -= int64(rq.bytes)
	r.Tracer.Span("rma.wait", trace.CatComm, r.id, trace.TrackNet, now, r.Clock.Now(),
		trace.A("target", rq.target), trace.A("bytes", rq.bytes), trace.A("stall", stall))
	return stall
}

// Flush completes every outstanding nonblocking operation this rank has
// issued (the analogue of MPI_Win_flush_all over all windows): the clock
// advances to the latest pending completion. It returns the total stall
// paid and is a silent no-op when nothing is outstanding.
func (r *Rank) Flush() float64 {
	start := r.Clock.Now()
	var stall float64
	n := 0
	for _, rq := range r.pending {
		if !rq.done {
			stall += rq.Wait()
			n++
		}
	}
	r.pending = r.pending[:0]
	if n > 0 {
		r.Tracer.Span("rma.flush", trace.CatComm, r.id, trace.TrackNet, start, r.Clock.Now(),
			trace.A("ops", n), trace.A("stall", stall))
	}
	return stall
}
