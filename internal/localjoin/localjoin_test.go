package localjoin

import (
	"testing"
	"testing/quick"

	"ewh/internal/join"
	"ewh/internal/keysort"
	"ewh/internal/stats"
)

func randKeys(n int, domain int64, seed uint64) []join.Key {
	r := stats.NewRNG(seed)
	out := make([]join.Key, n)
	for i := range out {
		out[i] = r.Int64n(domain)
	}
	return out
}

func TestCountMatchesNestedLoop(t *testing.T) {
	r1 := randKeys(200, 100, 1)
	r2 := randKeys(300, 100, 2)
	conds := []join.Condition{
		join.NewBand(0), join.NewBand(3), join.Equi{},
		join.Inequality{Op: join.Less}, join.Inequality{Op: join.GreaterEq},
	}
	for _, c := range conds {
		want := NestedLoopCount(r1, r2, c)
		if got := Count(r1, r2, c); got != want {
			t.Errorf("%v: Count = %d, want %d", c, got, want)
		}
	}
}

func TestHashCountMatchesNestedLoop(t *testing.T) {
	r1 := randKeys(500, 50, 3)
	r2 := randKeys(400, 50, 4)
	want := NestedLoopCount(r1, r2, join.Equi{})
	if got := HashCount(r1, r2); got != want {
		t.Fatalf("HashCount = %d, want %d", got, want)
	}
	// Symmetry: swapping sides must not change the count.
	if got := HashCount(r2, r1); got != want {
		t.Fatalf("HashCount swapped = %d, want %d", got, want)
	}
}

func TestEmptyInputs(t *testing.T) {
	keys := randKeys(10, 10, 5)
	if Count(nil, keys, join.Equi{}) != 0 || Count(keys, nil, join.Equi{}) != 0 {
		t.Error("empty side should count 0")
	}
	if HashCount(nil, keys) != 0 {
		t.Error("empty side should hash-count 0")
	}
	called := false
	Emit(nil, keys, join.Equi{}, func(a, b join.Key) { called = true })
	if called {
		t.Error("Emit on empty input called fn")
	}
}

func TestEmitMatchesCount(t *testing.T) {
	r1 := randKeys(100, 60, 6)
	r2 := randKeys(120, 60, 7)
	cond := join.NewBand(2)
	var n int64
	Emit(r1, r2, cond, func(a, b join.Key) {
		if !cond.Matches(a, b) {
			t.Fatalf("emitted non-matching pair (%d,%d)", a, b)
		}
		n++
	})
	if want := Count(r1, r2, cond); n != want {
		t.Fatalf("Emit produced %d pairs, Count says %d", n, want)
	}
}

func TestCountProperty(t *testing.T) {
	// Count must equal nested loop for arbitrary small inputs.
	f := func(a, b []int8, beta uint8) bool {
		r1 := make([]join.Key, len(a))
		r2 := make([]join.Key, len(b))
		for i, v := range a {
			r1[i] = join.Key(v)
		}
		for i, v := range b {
			r2[i] = join.Key(v)
		}
		cond := join.NewBand(int64(beta % 8))
		return Count(r1, r2, cond) == NestedLoopCount(r1, r2, cond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountSortedAndOwnedMatchNestedLoop(t *testing.T) {
	conds := []join.Condition{
		join.NewBand(0), join.NewBand(4), join.Equi{},
		join.Inequality{Op: join.Less}, join.Inequality{Op: join.GreaterEq},
	}
	for seed := uint64(40); seed < 46; seed++ {
		r1 := randKeys(150+int(seed*17), 90, seed)
		r2 := randKeys(130+int(seed*13), 90, seed+100)
		for _, c := range conds {
			want := NestedLoopCount(r1, r2, c)
			s1 := append([]join.Key(nil), r1...)
			s2 := append([]join.Key(nil), r2...)
			if got := MergeCountOwned(s1, s2, c); got != want {
				t.Errorf("seed %d %v: MergeCountOwned = %d, want %d", seed, c, got, want)
			}
			// MergeCountOwned sorted s1/s2 in place; CountSorted over
			// explicitly sorted copies must agree regardless.
			s1 = append(s1[:0], r1...)
			s2 = append(s2[:0], r2...)
			keysort.Sort(s1)
			keysort.Sort(s2)
			if got := CountSorted(s1, s2, c); got != want {
				t.Errorf("seed %d %v: CountSorted = %d, want %d", seed, c, got, want)
			}
		}
	}
}

func BenchmarkCountBand(b *testing.B) {
	r1 := randKeys(100000, 50000, 8)
	r2 := randKeys(100000, 50000, 9)
	cond := join.NewBand(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(r1, r2, cond)
	}
}

func BenchmarkHashCount(b *testing.B) {
	r1 := randKeys(100000, 50000, 10)
	r2 := randKeys(100000, 50000, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashCount(r1, r2)
	}
}

func TestMergeCountMatchesCount(t *testing.T) {
	r1 := randKeys(800, 400, 20)
	r2 := randKeys(700, 400, 21)
	conds := []join.Condition{
		join.NewBand(0), join.NewBand(3), join.Equi{},
		join.Inequality{Op: join.Less}, join.Inequality{Op: join.GreaterEq},
	}
	for _, c := range conds {
		if got, want := MergeCount(r1, r2, c), Count(r1, r2, c); got != want {
			t.Errorf("%v: MergeCount = %d, Count = %d", c, got, want)
		}
	}
	if MergeCount(nil, r2, join.Equi{}) != 0 {
		t.Error("empty side should merge-count 0")
	}
}

func TestMergeCountProperty(t *testing.T) {
	f := func(a, b []int8, beta uint8) bool {
		r1 := make([]join.Key, len(a))
		r2 := make([]join.Key, len(b))
		for i, v := range a {
			r1[i] = join.Key(v)
		}
		for i, v := range b {
			r2[i] = join.Key(v)
		}
		cond := join.NewBand(int64(beta % 8))
		return MergeCount(r1, r2, cond) == NestedLoopCount(r1, r2, cond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMergeCountBand(b *testing.B) {
	r1 := randKeys(100000, 50000, 22)
	r2 := randKeys(100000, 50000, 23)
	cond := join.NewBand(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeCount(r1, r2, cond)
	}
}
