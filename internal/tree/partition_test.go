package tree

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"barytree/internal/particle"
)

// swap exchanges particles i and j together with their permutation entries.
func (b *builder) swap(i, j int) {
	b.p.Swap(i, j)
	b.perm[i], b.perm[j] = b.perm[j], b.perm[i]
}

// hoare is the two-pointer partition bisect replaced, kept as its oracle:
// it partitions particles [lo, hi) so that those with coordinate d < mid
// come first and returns the index of the first particle with coordinate
// >= mid.
func (b *builder) hoare(lo, hi, d int, mid float64) int {
	coord := b.coord(d)
	i, j := lo, hi
	for i < j {
		for i < j && coord[i] < mid {
			i++
		}
		for i < j && coord[j-1] >= mid {
			j--
		}
		if i < j-1 {
			b.swap(i, j-1)
			b.stats.ParticleMoves++
			i++
			j--
		}
	}
	b.stats.ParticleScans += hi - lo
	return i
}

// hoareBuild is the serial midpoint build with the two-pointer partition,
// written out apart from builder.build and builder.partition: the oracle
// every build, at every worker count, must equal.
func hoareBuild(src *particle.Set, leafSize int) *Tree {
	t := &Tree{Particles: src.Clone(), Perm: particle.Identity(src.Len()), LeafSize: leafSize}
	if src.Len() == 0 {
		return t
	}
	b := &builder{p: t.Particles, perm: t.Perm, leafSize: leafSize}
	var rec func(parent int32, lo, hi, level int) int32
	rec = func(parent int32, lo, hi, level int) int32 {
		idx := int32(len(b.nodes))
		box := boundsRange(b.p, lo, hi)
		b.stats.ParticleScans += hi - lo
		b.nodes = append(b.nodes, Node{Box: box, Center: box.Center(), Radius: box.Radius(),
			Lo: lo, Hi: hi, Parent: parent, Level: level})
		b.stats.Nodes++
		b.stats.MaxDepth = max(b.stats.MaxDepth, level)
		if hi-lo <= leafSize {
			b.stats.Leaves++
			return idx
		}
		ranges := [][2]int{{lo, hi}}
		for _, d := range splitDims(box) {
			mid := (box.Lo.Component(d) + box.Hi.Component(d)) / 2
			var next [][2]int
			for _, r := range ranges {
				m := b.hoare(r[0], r[1], d, mid)
				if m > r[0] {
					next = append(next, [2]int{r[0], m})
				}
				if m < r[1] {
					next = append(next, [2]int{m, r[1]})
				}
			}
			ranges = next
		}
		if len(ranges) <= 1 {
			b.stats.Leaves++
			return idx
		}
		children := make([]int32, len(ranges))
		for k, r := range ranges {
			children[k] = rec(idx, r[0], r[1], level+1)
		}
		b.nodes[idx].Children = children
		return idx
	}
	rec(-1, 0, src.Len(), 0)
	t.Nodes, t.Stats = b.nodes, b.stats
	return t
}

// checkBisect runs bisect and hoare over [lo, hi) of copies of xs along x
// and requires the same particle order, permutation, split and counters.
func checkBisect(t *testing.T, name string, xs []float64, lo, hi int, mid float64) {
	t.Helper()
	run := func(part func(b *builder) int) (*builder, int) {
		p := particle.NewSet(len(xs))
		for i, x := range xs {
			p.Append(x, float64(i), -float64(i), float64(3*i))
		}
		b := &builder{p: p, perm: particle.Identity(len(xs))}
		return b, part(b)
	}
	want, wm := run(func(b *builder) int { return b.hoare(lo, hi, 0, mid) })
	got, gm := run(func(b *builder) int { return b.bisect(lo, hi, 0, mid) })
	if gm != wm {
		t.Fatalf("%s: split %d, want %d", name, gm, wm)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: stats %+v, want %+v", name, got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.perm, want.perm) {
		t.Fatalf("%s: permutation differs", name)
	}
	for i := range xs {
		if math.Float64bits(got.p.X[i]) != math.Float64bits(want.p.X[i]) ||
			got.p.Y[i] != want.p.Y[i] || got.p.Z[i] != want.p.Z[i] || got.p.Q[i] != want.p.Q[i] {
			t.Fatalf("%s: particle %d differs", name, i)
		}
	}
}

// TestBisectMatchesHoare pins bisect to the two-pointer loop on the inputs
// where a branch-free classification could go wrong: one-sided ranges,
// every coordinate at mid, signed zeros around a zero mid, subnormals,
// a mid that overflowed to an infinity, and ranges around the block
// length, each inside a longer set so the range starts past 0.
func TestBisectMatchesHoare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const pad = 3
	sub := math.SmallestNonzeroFloat64
	big := math.MaxFloat64
	type gen func(i int) float64
	cases := []struct {
		name string
		mid  float64
		x    gen
	}{
		{"all-below", 1, func(int) float64 { return rng.Float64() }},
		{"all-above", 0, func(int) float64 { return rng.Float64() }},
		{"all-at-mid", 0.5, func(int) float64 { return 0.5 }},
		{"uniform", 0.5, func(int) float64 { return rng.Float64() }},
		{"zeros-mid+0", 0, func(i int) float64 { return [...]float64{math.Copysign(0, -1), 0, -sub, sub}[rng.Intn(4)] }},
		{"zeros-mid-0", math.Copysign(0, -1), func(int) float64 { return [...]float64{math.Copysign(0, -1), 0, -1, 1}[rng.Intn(4)] }},
		{"subnormals", 2 * sub, func(int) float64 { return float64(rng.Intn(5)) * sub }},
		{"mid+Inf", (0.75*big + big) / 2, func(int) float64 { return [...]float64{0.75 * big, big, -big}[rng.Intn(3)] }},
		{"mid-Inf", (-0.75*big - big) / 2, func(int) float64 { return [...]float64{-0.75 * big, -big, big}[rng.Intn(3)] }},
		{"near-max", 0.5*big + 0.25*big, func(int) float64 { return [...]float64{big, 0.5 * big, -big}[rng.Intn(3)] }},
	}
	if !math.IsInf(cases[7].mid, 1) || !math.IsInf(cases[8].mid, -1) {
		t.Fatal("overflowing extents did not give an infinite mid")
	}
	for _, c := range cases {
		for _, n := range []int{1, 2, blockLen - 1, blockLen, blockLen + 1, 2*blockLen + 1, 5*blockLen + 17} {
			xs := make([]float64, n+2*pad)
			for i := range xs {
				xs[i] = c.x(i)
			}
			checkBisect(t, c.name, xs, pad, pad+n, c.mid)
		}
	}
}

// FuzzBisect compares bisect with the two-pointer loop on fuzzer-chosen
// finite coordinates and mid: raw is read as float64 bit patterns (the
// non-finite ones dropped), and n of its values, drawn with seed, fill
// ranges long enough to span several blocks.
func FuzzBisect(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			u := math.Float64bits(v)
			for k := 0; k < 8; k++ {
				out = append(out, byte(u>>(8*k)))
			}
		}
		return out
	}
	f.Add(bits(0, 1, 2, 3), 0.5, int64(1), uint16(700))
	f.Add(bits(math.Copysign(0, -1), 0), 0.0, int64(2), uint16(257))
	f.Add(bits(math.MaxFloat64, -math.MaxFloat64, 1), math.Inf(1), int64(3), uint16(513))
	f.Add(bits(math.SmallestNonzeroFloat64, 0), math.SmallestNonzeroFloat64, int64(4), uint16(40))
	f.Fuzz(func(t *testing.T, raw []byte, mid float64, seed int64, nRaw uint16) {
		if math.IsNaN(mid) {
			t.Skip()
		}
		var vals []float64
		for k := 0; k+8 <= len(raw); k += 8 {
			var u uint64
			for b := 0; b < 8; b++ {
				u |= uint64(raw[k+b]) << (8 * b)
			}
			if v := math.Float64frombits(u); v-v == 0 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % (6 * blockLen))
		xs := make([]float64, n+2)
		for i := range xs {
			xs[i] = vals[rng.Intn(len(vals))]
		}
		checkBisect(t, "fuzz", xs, 1, n+1, mid)
	})
}

// probeSources are the 200k Plummer sources of bltcbench's
// probe-sparse-200k workload (BenchmarkTreeBuildProbe200k's input).
func probeSources() *particle.Set {
	h := fnv.New64a()
	h.Write([]byte("probe-sparse-200k/sources"))
	return particle.Plummer(200_000, 1, rand.New(rand.NewSource(int64(h.Sum64()))))
}

// TestBuildMatchesHoare requires every build, serial and parallel, to equal
// the two-pointer serial build: on the degenerate sets at every leaf size
// of TestBuildWorkersDeterministic, and on the probe sources at leaf sizes
// 1, 7, 64 and 1000, at 1, 2, 3, 4, 7 and 8 workers. The probe trees are
// a bit-identity check, not a concurrency one (the degenerate sets and
// parallel_test.go's tests drive the job list under -race), so -short
// keeps two of their leaf sizes and the race detector none.
func TestBuildMatchesHoare(t *testing.T) {
	lowerThresholds(t)
	check := func(name string, pts *particle.Set, leaf int) {
		want := hoareBuild(pts, leaf)
		for _, w := range []int{1, 2, 3, 4, 7, 8} {
			if got := BuildWorkers(pts, leaf, w); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s leaf=%d workers=%d: tree differs from the two-pointer build", name, leaf, w)
			}
		}
	}
	for name, pts := range degenerateSets(4096) {
		for _, leaf := range []int{1, 7, 64, 5000} {
			check(name, pts, leaf)
		}
	}
	if raceDetector {
		return
	}
	leaves := []int{1, 7, 64, 1000}
	if testing.Short() {
		leaves = []int{64, 1000}
	}
	probe := probeSources()
	for _, leaf := range leaves {
		check("probe", probe, leaf)
	}
}
