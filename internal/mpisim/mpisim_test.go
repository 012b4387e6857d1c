package mpisim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"barytree/internal/perfmodel"
)

func testNet() perfmodel.NetworkSpec { return perfmodel.CometIB() }

func TestRunAllRanksExecute(t *testing.T) {
	var count atomic.Int64
	err := Run(7, testNet(), func(r *Rank) error {
		count.Add(1)
		if r.Size() != 7 {
			t.Errorf("rank %d sees size %d", r.ID(), r.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 7 {
		t.Fatalf("ran %d ranks, want 7", count.Load())
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("rank 3 failed")
	err := Run(5, testNet(), func(r *Rank) error {
		if r.ID() == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(0, testNet(), func(r *Rank) error { return nil }); err == nil {
		t.Fatal("expected error for size 0")
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	err := Run(4, testNet(), func(r *Rank) error {
		// Each rank does a different amount of "work".
		r.Clock.Advance(float64(r.ID()) * 0.5)
		r.Barrier()
		if r.Clock.Now() < 1.5 {
			return fmt.Errorf("rank %d clock %.3g below the slowest rank's 1.5", r.ID(), r.Clock.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowGetPut(t *testing.T) {
	err := Run(3, testNet(), func(r *Rank) error {
		local := make([]float64, 10)
		for i := range local {
			local[i] = float64(r.ID()*100 + i)
		}
		w := NewWindow(r, local)
		r.Barrier()

		// Get the middle of every other rank's window.
		for q := 0; q < r.Size(); q++ {
			dst := make([]float64, 4)
			w.Lock(q)
			w.Get(r, q, 3, dst)
			w.Unlock(q)
			for i, v := range dst {
				want := float64(q*100 + 3 + i)
				if v != want {
					return fmt.Errorf("rank %d got %g from rank %d slot %d, want %g", r.ID(), v, q, 3+i, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetAdvancesClock(t *testing.T) {
	net := testNet()
	err := Run(2, net, func(r *Rank) error {
		w := NewWindow(r, make([]float64, 1000))
		r.Barrier()
		before := r.Clock.Now()
		if r.ID() == 0 {
			_ = w.GetAll(r, 1)
			want := net.TransferTime(0, 1, 8000)
			got := r.Clock.Now() - before
			if got < want*0.99 || got > want*1.01 {
				return fmt.Errorf("get advanced clock by %.3g, want %.3g", got, want)
			}
			if r.Stats.Gets != 1 || r.Stats.GetBytes != 8000 {
				return fmt.Errorf("stats %+v", r.Stats)
			}
			if r.Stats.RMASeconds-got > 1e-15 || got-r.Stats.RMASeconds > 1e-15 {
				return fmt.Errorf("RMASeconds %.6g, want the clock advance %.6g", r.Stats.RMASeconds, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeCheaperThanInterNode(t *testing.T) {
	net := testNet() // 4 ranks per node
	intra := net.TransferTime(0, 1, 1<<20)
	inter := net.TransferTime(0, 4, 1<<20)
	if intra >= inter {
		t.Fatalf("intra-node %.3g should be cheaper than inter-node %.3g", intra, inter)
	}
	if net.TransferTime(2, 2, 1<<20) != 0 {
		t.Fatal("self transfer should be free")
	}
}

func TestWindowBoundsChecked(t *testing.T) {
	err := Run(2, testNet(), func(r *Rank) error {
		w := NewWindow(r, make([]float64, 5))
		r.Barrier()
		if r.ID() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-bounds get")
				}
			}()
			dst := make([]float64, 10)
			w.Lock(1)
			defer w.Unlock(1)
			w.Get(r, 1, 0, dst)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultipleWindowsMatchByOrder(t *testing.T) {
	err := Run(2, testNet(), func(r *Rank) error {
		a := NewWindow(r, []float64{float64(r.ID())})
		b := NewWindow(r, []int64{int64(10 + r.ID())})
		r.Barrier()
		other := 1 - r.ID()
		av := a.GetAll(r, other)
		bv := b.GetAll(r, other)
		if av[0] != float64(other) || bv[0] != int64(10+other) {
			return fmt.Errorf("rank %d got %v %v", r.ID(), av, bv)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankCommIsFree(t *testing.T) {
	err := Run(1, testNet(), func(r *Rank) error {
		w := NewWindow(r, []float64{7})
		r.Barrier()
		v := w.GetAll(r, 0)
		if v[0] != 7 {
			return fmt.Errorf("got %v", v)
		}
		if r.Clock.Now() != 0 {
			return fmt.Errorf("self communication advanced clock to %g", r.Clock.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate from rank")
		}
	}()
	_ = Run(3, testNet(), func(r *Rank) error {
		if r.ID() == 1 {
			panic("rank 1 exploded")
		}
		r.Barrier() // other ranks must not deadlock
		return nil
	})
}

func TestWindowTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched window element types")
		}
	}()
	_ = Run(2, testNet(), func(r *Rank) error {
		// Rank 0 creates a float64 window first; rank 1 creates an int64
		// window first. Creation order defines window identity (as in
		// MPI), so this is a programming error the runtime must surface.
		if r.ID() == 0 {
			NewWindow(r, []float64{1})
			NewWindow(r, []int64{2})
		} else {
			NewWindow(r, []int64{2})
			NewWindow(r, []float64{1})
		}
		return nil
	})
}

func TestConcurrentGetsSafe(t *testing.T) {
	// All ranks hammer rank 0's window concurrently; run with -race.
	err := Run(8, testNet(), func(r *Rank) error {
		w := NewWindow(r, make([]float64, 4096))
		r.Barrier()
		for iter := 0; iter < 50; iter++ {
			dst := make([]float64, 64)
			w.Lock(0)
			w.Get(r, 0, (r.ID()*64)%4000, dst)
			w.Unlock(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
