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

func TestEmptyInputs(t *testing.T) {
	keys := randKeys(10, 10, 5)
	if Count(nil, keys, join.Equi{}) != 0 || Count(keys, nil, join.Equi{}) != 0 {
		t.Error("empty side should count 0")
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
