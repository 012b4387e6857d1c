package device

import (
	"math"
	"sync/atomic"
	"testing"

	"barytree/internal/perfmodel"
)

func testSpec() perfmodel.GPUSpec {
	s := perfmodel.TitanV()
	return s
}

func TestLaunchExecutesAllBlocks(t *testing.T) {
	d := New(testSpec(), 4)
	var count atomic.Int64
	hit := make([]atomic.Bool, 1000)
	d.BeginPhase(0)
	d.Launch(LaunchSpec{Grid: 1000, Block: 32, FlopEq: 1000}, 0, func(b int) {
		count.Add(1)
		if hit[b].Swap(true) {
			t.Errorf("block %d executed twice", b)
		}
	})
	if count.Load() != 1000 {
		t.Fatalf("executed %d blocks, want 1000", count.Load())
	}
	for b := range hit {
		if !hit[b].Load() {
			t.Fatalf("block %d never executed", b)
		}
	}
}

func TestNilFnRecordsTimingOnly(t *testing.T) {
	d := New(testSpec(), 1)
	d.BeginPhase(0)
	d.Launch(LaunchSpec{Grid: 100, Block: 100, FlopEq: 1e9}, 0, nil)
	if done := d.Drain(); done <= 0 {
		t.Fatalf("drain = %g", done)
	}
	if st := d.StatsSnapshot(); st.Launches != 1 || st.FlopEq != 1e9 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDrainIdempotent(t *testing.T) {
	d := New(testSpec(), 1)
	d.BeginPhase(1.5)
	d.Launch(LaunchSpec{Grid: 10, Block: 10, FlopEq: 1e8}, 1.5, nil)
	a := d.Drain()
	b := d.Drain()
	if a != b {
		t.Fatalf("drain not idempotent: %g vs %g", a, b)
	}
	if a <= 1.5 {
		t.Fatalf("drain %g not after phase base", a)
	}
}

func TestDrainNoLaunchesReturnsBase(t *testing.T) {
	d := New(testSpec(), 1)
	d.BeginPhase(2.25)
	if got := d.Drain(); got != 2.25 {
		t.Fatalf("drain = %g, want base 2.25", got)
	}
}

func TestSaturatedKernelTimeMatchesRate(t *testing.T) {
	spec := testSpec()
	d := New(spec, 1)
	d.BeginPhase(0)
	work := 1e12
	// Fully saturating launch.
	d.Launch(LaunchSpec{Grid: spec.ThreadCapacity(), Block: 1, FlopEq: work}, 0, nil)
	got := d.Drain()
	want := spec.LaunchLatencyDevice + work/spec.EffectiveFlopRate()
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("saturated kernel time %g, want %g", got, want)
	}
}

func TestSmallKernelRunsSlower(t *testing.T) {
	// A kernel with 1% of the device's thread capacity should take ~100x
	// longer than a saturating one for the same work.
	spec := testSpec()
	work := 1e10
	cap := spec.ThreadCapacity()

	d1 := New(spec, 1)
	d1.BeginPhase(0)
	d1.Launch(LaunchSpec{Grid: cap, Block: 1, FlopEq: work}, 0, nil)
	tBig := d1.Drain()

	d2 := New(spec, 1)
	d2.BeginPhase(0)
	d2.Launch(LaunchSpec{Grid: cap / 100, Block: 1, FlopEq: work}, 0, nil)
	tSmall := d2.Drain()

	ratio := tSmall / tBig
	if ratio < 50 || ratio > 150 {
		t.Fatalf("under-occupied kernel ratio %g, want ~100", ratio)
	}
}

func TestStreamsOverlapSmallKernels(t *testing.T) {
	// Four quarter-capacity kernels on one stream serialize; on four
	// streams they co-run and finish ~4x sooner.
	spec := testSpec()
	work := 1e10
	quarter := spec.ThreadCapacity() / 4

	serial := New(spec, 1)
	serial.BeginPhase(0)
	for i := 0; i < 4; i++ {
		serial.Launch(LaunchSpec{Stream: 0, Grid: quarter, Block: 1, FlopEq: work}, 0, nil)
	}
	tSerial := serial.Drain()

	par := New(spec, 1)
	par.BeginPhase(0)
	for i := 0; i < 4; i++ {
		par.Launch(LaunchSpec{Stream: i, Grid: quarter, Block: 1, FlopEq: work}, 0, nil)
	}
	tPar := par.Drain()

	speedup := tSerial / tPar
	if speedup < 3.5 || speedup > 4.5 {
		t.Fatalf("stream overlap speedup %g, want ~4", speedup)
	}
}

func TestStreamsShareSaturatedDevice(t *testing.T) {
	// Two saturating kernels on different streams cannot beat the device
	// throughput: total time equals the serial sum.
	spec := testSpec()
	work := 1e11
	cap := spec.ThreadCapacity()

	d := New(spec, 1)
	d.BeginPhase(0)
	d.Launch(LaunchSpec{Stream: 0, Grid: cap, Block: 1, FlopEq: work}, 0, nil)
	d.Launch(LaunchSpec{Stream: 1, Grid: cap, Block: 1, FlopEq: work}, 0, nil)
	got := d.Drain()
	want := spec.LaunchLatencyDevice + 2*work/spec.EffectiveFlopRate()
	if math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("two saturating kernels finish at %g, want %g", got, want)
	}
}

func TestPerStreamFIFO(t *testing.T) {
	// A later kernel on the same stream cannot start before the earlier
	// one finishes, even if submitted long before.
	spec := testSpec()
	d := New(spec, 1)
	d.BeginPhase(0)
	work := 1e10
	d.Launch(LaunchSpec{Stream: 0, Grid: spec.ThreadCapacity(), Block: 1, FlopEq: work}, 0, nil)
	d.Launch(LaunchSpec{Stream: 0, Grid: spec.ThreadCapacity(), Block: 1, FlopEq: work}, 0, nil)
	got := d.Drain()
	single := work / spec.EffectiveFlopRate()
	if got < 2*single {
		t.Fatalf("same-stream kernels overlapped: %g < %g", got, 2*single)
	}
}

func TestLateSubmissionDelaysStart(t *testing.T) {
	spec := testSpec()
	d := New(spec, 1)
	d.BeginPhase(0)
	work := 1e9
	submit := 5.0
	d.Launch(LaunchSpec{Stream: 0, Grid: spec.ThreadCapacity(), Block: 1, FlopEq: work}, submit, nil)
	got := d.Drain()
	want := submit + spec.LaunchLatencyDevice + work/spec.EffectiveFlopRate()
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("late submit finishes at %g, want %g", got, want)
	}
}

func TestCopyEnginesSerializeAndAccumulate(t *testing.T) {
	spec := testSpec()
	d := New(spec, 1)
	d.BeginPhase(0)
	a := d.CopyIn(0, 1<<20)
	b := d.CopyIn(0, 1<<20)
	if b <= a {
		t.Fatalf("copies did not serialize: %g then %g", a, b)
	}
	wantA := spec.TransferLatency + float64(1<<20)/spec.HtoDBandwidth
	if math.Abs(a-wantA)/wantA > 1e-9 {
		t.Fatalf("copy time %g, want %g", a, wantA)
	}
	// DtoH engine independent of HtoD.
	c := d.CopyOut(0, 1<<20)
	if math.Abs(c-wantA)/wantA > 1e-9 {
		t.Fatalf("DtoH copy %g should not wait for HtoD engine", c)
	}
	st := d.StatsSnapshot()
	if st.BytesHtoD != 2<<20 || st.BytesDtoH != 1<<20 || st.Transfers != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBeginPhaseResetsLaunches(t *testing.T) {
	d := New(testSpec(), 1)
	d.BeginPhase(0)
	d.Launch(LaunchSpec{Grid: 10, Block: 1, FlopEq: 1e9}, 0, nil)
	first := d.Drain()
	d.BeginPhase(first)
	if got := d.Drain(); got != first {
		t.Fatalf("new phase drain = %g, want %g", got, first)
	}
}

func TestInvalidLaunchPanics(t *testing.T) {
	d := New(testSpec(), 1)
	d.BeginPhase(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid geometry")
		}
	}()
	d.Launch(LaunchSpec{Grid: 1, Block: 0}, 0, nil)
}

func TestPrecisionString(t *testing.T) {
	if FP64.String() != "fp64" || FP32.String() != "fp32" {
		t.Fatalf("precision strings %q %q", FP64.String(), FP32.String())
	}
}

func TestAccumBuffer(t *testing.T) {
	a := NewAccumBuffer(8)
	if a.Len() != 8 {
		t.Fatalf("len = %d", a.Len())
	}
	a.Add(3, 1.5)
	a.Add(3, 2.5)
	if got := a.Load(3); got != 4 {
		t.Fatalf("load = %g", got)
	}
	a.Store(0, -1)
	vals := a.Values()
	if vals[0] != -1 || vals[3] != 4 || vals[1] != 0 {
		t.Fatalf("values = %v", vals)
	}
}

func TestAccumBufferConcurrent(t *testing.T) {
	a := NewAccumBuffer(1)
	d := New(testSpec(), 8)
	d.BeginPhase(0)
	d.Launch(LaunchSpec{Grid: 10000, Block: 1, FlopEq: 1}, 0, func(b int) {
		a.Add(0, 1)
	})
	if got := a.Load(0); got != 10000 {
		t.Fatalf("concurrent adds lost updates: %g", got)
	}
}
