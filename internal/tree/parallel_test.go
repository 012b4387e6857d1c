package tree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"barytree/internal/particle"
)

// lowerThresholds sets the subtree-task granularity to two tasks per worker
// for the test and restores it on cleanup. The parallel build's only
// threshold is its task cutoff max(n/(tasksPerWorker*workers), leafSize),
// which small inputs cross at every worker count, so the determinism tests
// run the task split and the splice with a cutoff other than the default.
func lowerThresholds(t testing.TB) {
	t.Helper()
	oldTasks := tasksPerWorker
	tasksPerWorker = 2
	t.Cleanup(func() { tasksPerWorker = oldTasks })
}

// workerCounts are the worker bounds every determinism test compares
// against the serial build.
func workerCounts() []int {
	return []int{2, 3, 4, 7, 8, runtime.GOMAXPROCS(0)}
}

// degenerateSets returns the adversarial particle distributions of the
// bit-identity tests: uniform, clustered, coincident, collinear, heavy
// duplicates, signed zeros, and sets no larger than a leaf.
func degenerateSets(n int) map[string]*particle.Set {
	rng := rand.New(rand.NewSource(11))
	sets := map[string]*particle.Set{
		"uniform": particle.UniformCube(n, rng),
		"blob":    particle.GaussianBlob(n, 0.3, rng),
	}
	coincident := particle.NewSet(n)
	for i := 0; i < n; i++ {
		coincident.Append(0.25, -0.5, 0.75, float64(i))
	}
	sets["coincident"] = coincident
	collinear := particle.NewSet(n)
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n)
		collinear.Append(x, 2*x, -x, 1)
	}
	sets["collinear"] = collinear
	dup := particle.NewSet(n)
	for i := 0; i < n; i++ {
		v := float64(i % 7)
		dup.Append(v, -v, v/2, float64(i))
	}
	sets["duplicates"] = dup
	zeros := particle.NewSet(n)
	for i := 0; i < n; i++ {
		x := 0.0
		if i%2 == 0 {
			x = math.Copysign(0, -1)
		}
		zeros.Append(x, float64(i%3)-1, 0, 1)
	}
	sets["signed-zeros"] = zeros
	small := particle.UniformCube(5, rng)
	sets["tiny"] = small
	return sets
}

// TestBuildWorkersDeterministic pins the tentpole contract: the full Tree —
// Nodes (order, boxes, ranges, topology), the reordered Particles, Perm and
// Stats — deep-equals the serial build for every worker count, on every
// degenerate distribution, with the parallel paths forced on.
func TestBuildWorkersDeterministic(t *testing.T) {
	lowerThresholds(t)
	for name, pts := range degenerateSets(4096) {
		for _, leaf := range []int{1, 7, 64, 5000} {
			want := BuildWorkers(pts, leaf, 1)
			if err := want.Validate(); err != nil {
				t.Fatalf("%s leaf=%d: serial tree invalid: %v", name, leaf, err)
			}
			for _, w := range workerCounts() {
				got := BuildWorkers(pts, leaf, w)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s leaf=%d workers=%d: tree differs from serial", name, leaf, w)
				}
			}
		}
	}
}

// TestBuildBatchesWorkersDeterministic is the same contract for the batch
// partition.
func TestBuildBatchesWorkersDeterministic(t *testing.T) {
	lowerThresholds(t)
	for name, pts := range degenerateSets(4096) {
		want := BuildBatchesWorkers(pts, 50, 1)
		for _, w := range workerCounts() {
			got := BuildBatchesWorkers(pts, 50, w)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s workers=%d: batches differ from serial", name, w)
			}
		}
	}
}

// TestBuildWorkersProperty drives random distributions through the
// parallel build and checks Validate plus serial equality.
func TestBuildWorkersProperty(t *testing.T) {
	lowerThresholds(t)
	f := func(seed int64, nRaw uint16, leafRaw uint8, wRaw uint8) bool {
		n := int(nRaw%2000) + 1
		leaf := int(leafRaw%100) + 1
		w := int(wRaw%8) + 1
		pts := particle.UniformCube(n, rand.New(rand.NewSource(seed)))
		want := BuildWorkers(pts, leaf, 1)
		got := BuildWorkers(pts, leaf, w)
		return want.Validate() == nil && got.Validate() == nil &&
			reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBuildWorkers feeds fuzzer-chosen coordinates (including NaN-free
// degenerate layouts the fuzzer discovers) through every worker count and
// requires a valid tree identical to serial.
func FuzzBuildWorkers(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(3))
	f.Add(int64(2), uint16(1), uint8(1))
	f.Add(int64(3), uint16(513), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, leafRaw uint8) {
		lowerThresholds(t)
		n := int(nRaw % 3000)
		leaf := int(leafRaw%64) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := particle.NewSet(n)
		for i := 0; i < n; i++ {
			// Quantized coordinates generate many exact duplicates and
			// shared coordinate values, the hard cases for partitioning.
			pts.Append(float64(rng.Intn(32))/8-2, float64(rng.Intn(32))/8-2,
				float64(rng.Intn(32))/8-2, rng.Float64())
		}
		want := BuildWorkers(pts, leaf, 1)
		if err := want.Validate(); err != nil {
			t.Fatalf("serial tree invalid: %v", err)
		}
		for _, w := range []int{2, 5, runtime.GOMAXPROCS(0)} {
			got := BuildWorkers(pts, leaf, w)
			if err := got.Validate(); err != nil {
				t.Fatalf("workers=%d: invalid tree: %v", w, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d: tree differs from serial", w)
			}
		}
	})
}

// TestBuildWorkersPanicsMatchSerial pins the bugfix guard: the argument
// checks run before the serial/parallel split, so both paths reject bad
// input with the same panic.
func TestBuildWorkersPanicsMatchSerial(t *testing.T) {
	mustPanic := func(fn func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		fn()
		t.Fatal("no panic")
		return ""
	}
	pts := particle.UniformCube(10, rand.New(rand.NewSource(1)))
	for _, bad := range []int{0, -3} {
		serial := mustPanic(func() { BuildWorkers(pts, bad, 1) })
		parallel := mustPanic(func() { BuildWorkers(pts, bad, 4) })
		want := fmt.Sprintf("tree: leaf size must be >= 1, got %d", bad)
		if serial != want || parallel != want {
			t.Fatalf("leafSize=%d panics: serial %q, parallel %q, want %q", bad, serial, parallel, want)
		}
	}
	serial := mustPanic(func() { BuildWorkers(nil, 10, 1) })
	parallel := mustPanic(func() { BuildWorkers(nil, 10, 4) })
	if serial != "tree: nil particle set" || serial != parallel {
		t.Fatalf("nil-set panics: serial %q, parallel %q", serial, parallel)
	}
}

// TestBuildWorkersFastPaths pins the empty-input and single-node cases:
// both return without spawning the parallel machinery and are identical
// across worker counts.
func TestBuildWorkersFastPaths(t *testing.T) {
	empty := particle.NewSet(0)
	for _, w := range []int{1, 4} {
		tr := BuildWorkers(empty, 10, w)
		if len(tr.Nodes) != 0 || tr.Stats != (BuildStats{}) {
			t.Fatalf("workers=%d: empty input built %d nodes, stats %+v", w, len(tr.Nodes), tr.Stats)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	small := particle.UniformCube(8, rand.New(rand.NewSource(4)))
	want := BuildWorkers(small, 20, 1)
	if len(want.Nodes) != 1 || want.Stats.Leaves != 1 {
		t.Fatalf("single-node build produced %d nodes", len(want.Nodes))
	}
	for _, w := range workerCounts() {
		got := BuildWorkers(small, 20, w)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: single-node tree differs", w)
		}
	}
}

// TestLeavesPreallocated pins the Leaves satellite: the returned slice is
// sized exactly from Stats.Leaves (no append growth) and matches the
// construction-order leaf walk.
func TestLeavesPreallocated(t *testing.T) {
	pts := particle.UniformCube(3000, rand.New(rand.NewSource(9)))
	tr := Build(pts, 100)
	leaves := tr.Leaves()
	if len(leaves) != tr.Stats.Leaves || cap(leaves) != tr.Stats.Leaves {
		t.Fatalf("Leaves len=%d cap=%d, want both %d", len(leaves), cap(leaves), tr.Stats.Leaves)
	}
	k := 0
	for i := range tr.Nodes {
		if tr.Nodes[i].IsLeaf() {
			if leaves[k] != int32(i) {
				t.Fatalf("leaf %d = %d, want %d", k, leaves[k], i)
			}
			k++
		}
	}
}
