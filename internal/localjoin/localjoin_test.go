package localjoin

import (
	"testing"
	"testing/quick"

	"ewh/internal/join"
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
