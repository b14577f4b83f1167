package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at draw %d", i)
		}
	}
}

func TestSequencesIndependent(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different sequence ids collided %d/1000 times", same)
	}
}

func TestDeriveIndependentOfParentUse(t *testing.T) {
	p1 := New(9, 1)
	d1 := p1.Derive("cache")
	p2 := New(9, 1)
	d2 := p2.Derive("cache")
	for i := 0; i < 100; i++ {
		if d1.Uint64() != d2.Uint64() {
			t.Fatalf("Derive not deterministic at draw %d", i)
		}
	}
	// Deriving must not perturb the parent.
	q1 := New(9, 1)
	q2 := New(9, 1)
	_ = q1.Derive("anything")
	for i := 0; i < 100; i++ {
		if q1.Uint64() != q2.Uint64() {
			t.Fatalf("Derive perturbed parent state at draw %d", i)
		}
	}
}

func TestDeriveLabelsDiffer(t *testing.T) {
	p := New(5, 5)
	a := p.Derive("alpha")
	b := p.Derive("beta")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams with different labels collided %d/1000 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(1, 1)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 1).Intn(0)
}

func TestInt63nRange(t *testing.T) {
	s := New(2, 2)
	for _, n := range []int64{1, 5, 1 << 40, math.MaxInt64} {
		for i := 0; i < 100; i++ {
			v := s.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3, 3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4, 4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(5, 5)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(6, 6)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v", p)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(7, 7)
	const p = 0.25
	const n = 50000
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.Geometric(p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p // = 3
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	New(1, 1).Geometric(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(8, 8)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPickRespectsWeights(t *testing.T) {
	s := New(9, 9)
	weights := []float64{0, 1, 3, 0}
	counts := make([]int, len(weights))
	const n = 40000
	for i := 0; i < n; i++ {
		counts[s.Pick(weights)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("Pick selected zero-weight element: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("Pick weight ratio = %v, want ~3", ratio)
	}
}

func TestPickAllZero(t *testing.T) {
	s := New(10, 10)
	if got := s.Pick([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("Pick(all zero) = %d, want 0", got)
	}
}

func TestUint32Property(t *testing.T) {
	// Property: the low bit of Uint32 should be roughly balanced for any seed.
	f := func(seed uint64) bool {
		s := New(seed, 0)
		ones := 0
		for i := 0; i < 1000; i++ {
			ones += int(s.Uint32() & 1)
		}
		return ones > 380 && ones < 620
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUnbiasedSmallN(t *testing.T) {
	s := New(11, 11)
	const n = 3
	const draws = 90000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-1.0/n) > 0.01 {
			t.Fatalf("Intn(%d) bucket %d frac = %v", n, i, frac)
		}
	}
}
