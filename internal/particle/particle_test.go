package particle

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(4)
	if s.Len() != 0 {
		t.Fatalf("new set has %d particles", s.Len())
	}
	s.Append(1, 2, 3, -0.5)
	s.Append(4, 5, 6, 0.25)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if p := s.At(1); p.X != 4 || p.Y != 5 || p.Z != 6 {
		t.Errorf("At(1) = %v", p)
	}
	s.Swap(0, 1)
	if s.X[0] != 4 || s.Q[0] != 0.25 || s.X[1] != 1 || s.Q[1] != -0.5 {
		t.Errorf("swap failed: %+v", s)
	}
	if tc := s.TotalCharge(); tc != -0.25 {
		t.Errorf("total charge %g", tc)
	}
}

func TestSliceSharesStorage(t *testing.T) {
	s := NewSet(3)
	s.Append(0, 0, 0, 1)
	s.Append(1, 1, 1, 2)
	s.Append(2, 2, 2, 3)
	v := s.Slice(1, 3)
	if v.Len() != 2 || v.Q[0] != 2 {
		t.Fatalf("slice = %+v", v)
	}
	v.Q[0] = 42
	if s.Q[1] != 42 {
		t.Error("slice does not share storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := NewSet(1)
	s.Append(1, 2, 3, 4)
	c := s.Clone()
	c.X[0] = 99
	if s.X[0] != 1 {
		t.Error("clone shares storage")
	}
}

func TestValidate(t *testing.T) {
	s := NewSet(1)
	s.Append(1, 2, 3, 4)
	if err := s.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	s.X = append(s.X, 5)
	if err := s.Validate(); err == nil {
		t.Error("ragged set accepted")
	}
	// Every non-finite value in every field is rejected at its index, and
	// the first bad index is the one named.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for f := 0; f < 4; f++ {
			bad := UniformCube(9, rand.New(rand.NewSource(2)))
			bad.X[1] = -math.MaxFloat64
			bad.Q[2] = math.SmallestNonzeroFloat64
			[4][]float64{bad.X, bad.Y, bad.Z, bad.Q}[f][5] = v
			bad.X[7] = math.NaN()
			err := bad.Validate()
			if want := "particle: non-finite value at index 5"; err == nil || err.Error() != want {
				t.Errorf("%v in field %d at index 5: got %v, want %q", v, f, err, want)
			}
		}
	}
}

// BenchmarkValidate times the finiteness check NewPlan runs on every
// source and target set, at probe-sparse-200k's source count.
func BenchmarkValidate(b *testing.B) {
	s := UniformCube(200_000, rand.New(rand.NewSource(1)))
	for i := 0; i < b.N; i++ {
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUniformCubeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := UniformCube(10000, rng)
	if s.Len() != 10000 {
		t.Fatalf("len = %d", s.Len())
	}
	b := s.Bounds()
	if b.Lo.X < -1 || b.Hi.X > 1 || b.Lo.Y < -1 || b.Hi.Y > 1 || b.Lo.Z < -1 || b.Hi.Z > 1 {
		t.Errorf("bounds %v escape [-1,1]^3", b)
	}
	// With 10k uniform points the box should nearly fill the cube.
	if b.Size().X < 1.9 || b.Size().Y < 1.9 || b.Size().Z < 1.9 {
		t.Errorf("bounds %v suspiciously small", b)
	}
	for _, q := range s.Q {
		if q < -1 || q > 1 {
			t.Fatalf("charge %g outside [-1,1]", q)
		}
	}
}

func TestPlummer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Plummer(20000, 1, rng)
	// Total mass 1.
	if m := s.TotalCharge(); math.Abs(m-1) > 1e-9 {
		t.Errorf("total mass %g, want 1", m)
	}
	// Half-mass radius of a Plummer sphere is ~1.305 a.
	var inside int
	for i := 0; i < s.Len(); i++ {
		if s.At(i).Norm() < 1.305 {
			inside++
		}
	}
	frac := float64(inside) / float64(s.Len())
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("half-mass fraction %.3f, want ~0.5", frac)
	}
}

func TestGaussianBlobCentered(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := GaussianBlob(20000, 0.5, rng)
	var mx, my, mz float64
	for i := 0; i < s.Len(); i++ {
		mx += s.X[i]
		my += s.Y[i]
		mz += s.Z[i]
	}
	n := float64(s.Len())
	if math.Abs(mx/n) > 0.02 || math.Abs(my/n) > 0.02 || math.Abs(mz/n) > 0.02 {
		t.Errorf("blob mean (%.3g, %.3g, %.3g) not near origin", mx/n, my/n, mz/n)
	}
}

func TestLattice(t *testing.T) {
	s := Lattice(3)
	if s.Len() != 27 {
		t.Fatalf("lattice has %d particles", s.Len())
	}
	b := s.Bounds()
	if b.Lo.X != -1 || b.Hi.X != 1 {
		t.Errorf("lattice bounds %v", b)
	}
	if s1 := Lattice(1); s1.Len() != 1 || s1.At(0) != s1.Bounds().Center() {
		t.Errorf("unit lattice %+v", s1)
	}
}

func TestPermutationInverse(t *testing.T) {
	p := Permutation{2, 0, 3, 1}
	inv := p.Inverse()
	want := Permutation{1, 3, 0, 2}
	for i := range want {
		if inv[i] != want[i] {
			t.Fatalf("inverse = %v, want %v", inv, want)
		}
	}
}

func TestPermutationValid(t *testing.T) {
	if !(Permutation{1, 0, 2}).Valid() {
		t.Error("valid permutation rejected")
	}
	if (Permutation{0, 0, 2}).Valid() {
		t.Error("duplicate accepted")
	}
	if (Permutation{0, 3, 1}).Valid() {
		t.Error("out of range accepted")
	}
	if !Identity(5).Valid() {
		t.Error("identity invalid")
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		p := Identity(n)
		rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.Float64()
		}
		gathered := make([]float64, n)
		p.GatherInto(gathered, src)
		back := make([]float64, n)
		p.ScatterInto(back, gathered)
		for i := range src {
			if back[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGatherSemantics(t *testing.T) {
	p := Permutation{2, 0, 1}
	src := []float64{10, 20, 30}
	dst := make([]float64, 3)
	p.GatherInto(dst, src)
	if dst[0] != 30 || dst[1] != 10 || dst[2] != 20 {
		t.Errorf("gather = %v", dst)
	}
	out := make([]float64, 3)
	p.ScatterInto(out, dst)
	if out[0] != 10 || out[1] != 20 || out[2] != 30 {
		t.Errorf("scatter = %v", out)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := UniformCube(100, rand.New(rand.NewSource(42)))
	b := UniformCube(100, rand.New(rand.NewSource(42)))
	for i := 0; i < 100; i++ {
		if a.X[i] != b.X[i] || a.Q[i] != b.Q[i] {
			t.Fatal("same seed produced different particles")
		}
	}
}
