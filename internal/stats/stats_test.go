package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/64 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first values")
	}
}

func TestInt64nRange(t *testing.T) {
	r := NewRNG(3)
	f := func(n16 uint16) bool {
		n := int64(n16%1000) + 1
		v := r.Int64n(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int64n(0) did not panic")
		}
	}()
	NewRNG(1).Int64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64UniformMean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	r := NewRNG(13)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw(r)]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-n/10) > n/10*0.1 {
			t.Fatalf("s=0 key %d count %d far from uniform %d", k, c, n/10)
		}
	}
}

func TestZipfSkewShape(t *testing.T) {
	z := NewZipf(1000, 1.0)
	r := NewRNG(17)
	counts := make([]int, 1000)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[z.Draw(r)]++
	}
	// With s=1, P(0)/P(9) = 10; allow generous sampling slack.
	ratio := float64(counts[0]) / float64(counts[9]+1)
	if ratio < 5 || ratio > 20 {
		t.Fatalf("zipf(1) P(0)/P(9) ratio %v, want ~10", ratio)
	}
	if counts[0] <= counts[100] {
		t.Fatal("zipf head not heavier than tail")
	}
}

func TestZipfLargeDomainEnvelope(t *testing.T) {
	z := NewZipf(1<<22, 0.5) // beyond cdfCap: exercises envelope inversion
	r := NewRNG(19)
	var below, total int64
	for i := 0; i < 50000; i++ {
		v := z.Draw(r)
		if v < 0 || v >= 1<<22 {
			t.Fatalf("draw out of range: %d", v)
		}
		if v < 1<<21 {
			below++
		}
		total++
	}
	// s=0.5 puts well over half the mass in the lower half of the domain.
	if float64(below)/float64(total) < 0.6 {
		t.Fatalf("envelope sampler not skewed: %d/%d below midpoint", below, total)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkZipfDrawSmall(b *testing.B) {
	z := NewZipf(100000, 0.25)
	r := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Draw(r)
	}
}

func BenchmarkZipfDrawLarge(b *testing.B) {
	z := NewZipf(1<<24, 0.25)
	r := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Draw(r)
	}
}
