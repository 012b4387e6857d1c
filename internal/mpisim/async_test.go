package mpisim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"barytree/internal/trace"
)

// TestIgetCopiesImmediately checks the functional contract: the data is in
// dst when Iget returns, before any Wait, because the copy is legal the
// moment the origin holds the passive-target lock.
func TestIgetCopiesImmediately(t *testing.T) {
	err := Run(2, testNet(), func(r *Rank) error {
		src := make([]float64, 8)
		for i := range src {
			src[i] = float64(r.ID()*100 + i)
		}
		w := NewWindow(r, src)
		r.Barrier()
		other := 1 - r.ID()
		dst := make([]float64, 8)
		w.Lock(other)
		rq := w.Iget(r, other, 0, dst)
		w.Unlock(other)
		for i := range dst {
			if dst[i] != float64(other*100+i) {
				return fmt.Errorf("rank %d: dst[%d] = %g before wait", r.ID(), i, dst[i])
			}
		}
		if rq.Done() {
			return fmt.Errorf("request done before Wait")
		}
		rq.Wait()
		if !rq.Done() {
			return fmt.Errorf("request not done after Wait")
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIgetWaitAllMatchesSequentialGets checks the key modeled-time
// equivalence that makes the serial schedule a pure refactor: N
// back-to-back Igets followed by a full Flush cost exactly the same
// seconds as N synchronous Gets, because the NIC timeline serializes the
// in-flight transfers at link bandwidth.
func TestIgetWaitAllMatchesSequentialGets(t *testing.T) {
	net := testNet()
	const n = 5
	run := func(async bool) float64 {
		var elapsed float64
		err := Run(2, net, func(r *Rank) error {
			w := NewWindow(r, make([]float64, 1000))
			r.Barrier()
			if r.ID() == 0 {
				before := r.Clock.Now()
				w.Lock(1)
				for i := 0; i < n; i++ {
					dst := make([]float64, 100+50*i)
					if async {
						w.Iget(r, 1, 0, dst)
					} else {
						w.Get(r, 1, 0, dst)
					}
				}
				w.Unlock(1)
				r.Flush()
				elapsed = r.Clock.Now() - before
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	sync, async := run(false), run(true)
	if sync != async {
		t.Errorf("sequential gets cost %.9g s, igets+flush %.9g s; want identical", sync, async)
	}
	if sync == 0 {
		t.Error("transfers cost nothing")
	}
}

// TestIgetOverlapHidesWireTime checks the overlap win: host work advanced
// between issue and wait hides the wire time, the wait stalls for only the
// remainder, and a wait after full completion is free.
func TestIgetOverlapHidesWireTime(t *testing.T) {
	net := testNet()
	err := Run(2, net, func(r *Rank) error {
		w := NewWindow(r, make([]float64, 1<<16))
		r.Barrier()
		if r.ID() == 0 {
			dst := make([]float64, 1<<16)
			wire := net.TransferTime(0, 1, len(dst)*8)
			w.Lock(1)
			rq := w.Iget(r, 1, 0, dst)
			w.Unlock(1)

			// Hide half the wire time under host work: stall = wire - half.
			issueAt := r.Clock.Now()
			r.Clock.Advance(wire / 2)
			stall := rq.Wait()
			want := wire / 2
			if diff := stall - want; diff > 1e-12 || diff < -1e-12 {
				return fmt.Errorf("stall %.6g, want %.6g", stall, want)
			}
			if now := r.Clock.Now(); now != issueAt+wire {
				return fmt.Errorf("clock %.6g after wait, want completion %.6g", now, issueAt+wire)
			}
			if rs := r.Stats.RMASeconds; rs != stall {
				return fmt.Errorf("RMASeconds %.6g, want only the stall %.6g", rs, stall)
			}
			if again := rq.Wait(); again != 0 {
				return fmt.Errorf("repeated Wait stalled %.6g, want 0", again)
			}

			// A transfer fully hidden under host work stalls zero.
			w.Lock(1)
			rq2 := w.Iget(r, 1, 0, dst)
			w.Unlock(1)
			r.Clock.Advance(2 * wire)
			if s := rq2.Wait(); s != 0 {
				return fmt.Errorf("fully hidden transfer stalled %.6g", s)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlushCompletesAllPending checks Flush semantics: clock lands on the
// last pending completion, every request it drained reports Done, and a
// second Flush is a free no-op.
func TestFlushCompletesAllPending(t *testing.T) {
	net := testNet()
	err := Run(2, net, func(r *Rank) error {
		w := NewWindow(r, make([]float64, 4096))
		r.Barrier()
		if r.ID() == 0 {
			var wire float64
			var reqs []*Request
			w.Lock(1)
			for i := 0; i < 3; i++ {
				dst := make([]float64, 1024)
				reqs = append(reqs, w.Iget(r, 1, 0, dst))
				wire += net.TransferTime(0, 1, len(dst)*8)
			}
			w.Unlock(1)
			for i, rq := range reqs {
				if rq.Done() {
					return fmt.Errorf("request %d done before any wait or flush", i)
				}
			}
			before := r.Clock.Now()
			stall := r.Flush()
			if diff := stall - wire; diff > 1e-12 || diff < -1e-12 {
				return fmt.Errorf("flush stalled %.6g, want full wire time %.6g", stall, wire)
			}
			if got := r.Clock.Now() - before; got-stall > 1e-12 || stall-got > 1e-12 {
				return fmt.Errorf("flush advanced clock %.6g but reported stall %.6g", got, stall)
			}
			for i, rq := range reqs {
				if !rq.Done() {
					return fmt.Errorf("request %d not done after flush", i)
				}
			}
			if again := r.Flush(); again != 0 {
				return fmt.Errorf("second flush stalled %.6g", again)
			}
			if r.Stats.IGets != 3 || r.Stats.Gets != 3 {
				return fmt.Errorf("stats %+v", r.Stats)
			}
			if r.Stats.InflightPeakBytes != 3*1024*8 {
				return fmt.Errorf("inflight peak %d, want %d", r.Stats.InflightPeakBytes, 3*1024*8)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSelfIgetIsFree mirrors TestSingleRankCommIsFree for the nonblocking
// path: a rank fetching from itself must not touch the clock or the NIC.
func TestSelfIgetIsFree(t *testing.T) {
	err := Run(1, testNet(), func(r *Rank) error {
		w := NewWindow(r, []float64{1, 2, 3})
		dst := make([]float64, 3)
		w.Lock(0)
		rq := w.Iget(r, 0, 0, dst)
		w.Unlock(0)
		if s := rq.Wait(); s != 0 {
			return fmt.Errorf("self iget stalled %.6g", s)
		}
		if r.Clock.Now() != 0 {
			return fmt.Errorf("self iget advanced clock to %.6g", r.Clock.Now())
		}
		if dst[2] != 3 {
			return fmt.Errorf("self iget copied %v", dst)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSyncGetQueuesBehindInflightIgets checks that synchronous and
// asynchronous traffic share one occupancy timeline: a Get issued with an
// Iget still in flight completes only after it.
func TestSyncGetQueuesBehindInflightIgets(t *testing.T) {
	net := testNet()
	err := Run(2, net, func(r *Rank) error {
		w := NewWindow(r, make([]float64, 1<<15))
		r.Barrier()
		if r.ID() == 0 {
			big := make([]float64, 1<<15)
			small := make([]float64, 16)
			wireBig := net.TransferTime(0, 1, len(big)*8)
			wireSmall := net.TransferTime(0, 1, len(small)*8)
			before := r.Clock.Now()
			w.Lock(1)
			rq := w.Iget(r, 1, 0, big)
			w.Get(r, 1, 0, small) // must queue behind the in-flight iget
			w.Unlock(1)
			if got, want := r.Clock.Now()-before, wireBig+wireSmall; got-want > 1e-12 || want-got > 1e-12 {
				return fmt.Errorf("queued get finished after %.6g, want %.6g", got, want)
			}
			if s := rq.Wait(); s != 0 {
				return fmt.Errorf("iget stalled %.6g after later sync get completed", s)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMultiOriginEpochs drives every rank through nonblocking
// epochs against every other rank concurrently (run under -race): locks,
// igets, unlocks, host work, flush. Data must be correct and per-rank
// modeled state must stay consistent.
func TestConcurrentMultiOriginEpochs(t *testing.T) {
	const ranks = 6
	var total atomic.Int64
	err := Run(ranks, testNet(), func(r *Rank) error {
		local := make([]float64, 64)
		for i := range local {
			local[i] = float64(r.ID()*1000 + i)
		}
		w := NewWindow(r, local)
		r.Barrier()
		got := make([][]float64, ranks)
		reqs := make([]*Request, 0, ranks-1)
		for target := 0; target < ranks; target++ {
			if target == r.ID() {
				continue
			}
			dst := make([]float64, 64)
			w.Lock(target)
			reqs = append(reqs, w.Iget(r, target, 0, dst))
			w.Unlock(target)
			got[target] = dst
		}
		r.Clock.Advance(1e-6) // host work under the in-flight epochs
		var stall float64
		for _, rq := range reqs {
			stall += rq.Wait()
		}
		r.Flush()
		for target, dst := range got {
			if dst == nil {
				continue
			}
			for i, v := range dst {
				if v != float64(target*1000+i) {
					return fmt.Errorf("rank %d: got[%d][%d] = %g", r.ID(), target, i, v)
				}
			}
			total.Add(1)
		}
		for _, rq := range reqs {
			if !rq.Done() {
				return fmt.Errorf("rank %d: request to rank %d not done after flush", r.ID(), rq.target)
			}
		}
		if r.Stats.IGets != ranks-1 {
			return fmt.Errorf("rank %d: %d igets", r.ID(), r.Stats.IGets)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != ranks*(ranks-1) {
		t.Errorf("completed %d epochs, want %d", total.Load(), ranks*(ranks-1))
	}
}

// TestRMAPanicMessages checks the exact shape of the out-of-bounds panic
// messages on both one-sided operations — they name the operation,
// the bad range, the window bounds, and the target rank.
func TestRMAPanicMessages(t *testing.T) {
	cases := []struct {
		name string
		op   func(r *Rank, w *Window[float64])
		want string
	}{
		{"get", func(r *Rank, w *Window[float64]) {
			w.Get(r, 1, 3, make([]float64, 10))
		}, "mpisim: Get [3,13) out of window bounds [0,5) on rank 1"},
		{"iget", func(r *Rank, w *Window[float64]) {
			w.Iget(r, 1, 4, make([]float64, 2))
		}, "mpisim: Iget [4,6) out of window bounds [0,5) on rank 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Run(2, testNet(), func(r *Rank) error {
				w := NewWindow(r, make([]float64, 5))
				r.Barrier()
				if r.ID() == 0 {
					defer func() {
						p := recover()
						if p == nil {
							t.Errorf("%s: expected panic", tc.name)
							return
						}
						msg := fmt.Sprint(p)
						if !strings.Contains(msg, tc.want) {
							t.Errorf("%s: panic %q, want %q", tc.name, msg, tc.want)
						}
					}()
					w.Lock(1)
					defer w.Unlock(1)
					tc.op(r, w)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAsyncSpansTraced checks the async span taxonomy: rma.iget spans
// cover [start, completion] on the NIC track, rma.wait records the stall,
// rma.flush appears only when something was outstanding, and the iget
// byte counters accumulate.
func TestAsyncSpansTraced(t *testing.T) {
	tr := trace.New()
	err := Run(2, testNet(), func(r *Rank) error {
		r.Tracer = tr
		w := NewWindow(r, make([]float64, 256))
		r.Barrier()
		if r.ID() == 0 {
			w.Lock(1)
			a := w.Iget(r, 1, 0, make([]float64, 128))
			w.Iget(r, 1, 128, make([]float64, 128))
			w.Unlock(1)
			a.Wait()
			r.Flush()
			r.Flush() // silent: nothing outstanding
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range tr.Spans() {
		counts[s.Name]++
	}
	if counts["rma.iget"] != 2 {
		t.Errorf("%d rma.iget spans, want 2", counts["rma.iget"])
	}
	if counts["rma.wait"] != 2 { // explicit Wait + the one inside Flush
		t.Errorf("%d rma.wait spans, want 2", counts["rma.wait"])
	}
	if counts["rma.flush"] != 1 {
		t.Errorf("%d rma.flush spans, want 1 (second flush must be silent)", counts["rma.flush"])
	}
	ctrs := map[string]float64{}
	for _, c := range tr.Counters() {
		ctrs[c.Name] = c.Value
	}
	if ctrs["rma.iget_bytes"] != 2*128*8 {
		t.Errorf("rma.iget_bytes = %g, want %d", ctrs["rma.iget_bytes"], 2*128*8)
	}
	if ctrs["rma.inflight_peak_bytes"] != 2*128*8 {
		t.Errorf("rma.inflight_peak_bytes = %g, want %d", ctrs["rma.inflight_peak_bytes"], 2*128*8)
	}
}
