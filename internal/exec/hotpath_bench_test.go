package exec

import (
	"testing"

	"ewh/internal/join"
	"ewh/internal/partition"
)

// BenchmarkShuffle isolates the shuffle phase of the engine: R2 is empty, so
// every local join early-returns and wall time and allocations are dominated
// by routing R1's tuples into per-worker buffers and handing them to the
// reduce phase. Mappers is pinned so numbers are comparable across machines.
func BenchmarkShuffle(b *testing.B) {
	const n1 = 1 << 21
	r1 := randKeys(n1, 1<<30, 50)
	var r2 []join.Key
	scheme, err := partition.NewHash(8, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(r1, r2, join.Equi{}, scheme, model, Config{Seed: 51, Mappers: 4})
		if res.Output != 0 {
			b.Fatalf("expected empty join, got %d", res.Output)
		}
	}
}

// BenchmarkShuffleCI measures the replicating shuffle: CI routes every R1
// tuple to a full grid row, stressing the variable fan-out path.
func BenchmarkShuffleCI(b *testing.B) {
	const n1 = 1 << 19
	r1 := randKeys(n1, 1<<40, 52)
	var r2 []join.Key
	scheme := partition.NewCI(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(r1, r2, join.NewBand(1), scheme, model, Config{Seed: 53, Mappers: 4})
		if res.Output != 0 {
			b.Fatalf("expected empty join, got %d", res.Output)
		}
	}
}

// BenchmarkRunTuples measures the tuple adapter end to end: the two Keys
// projections (8 B per row) are all it allocates in proportion to the input;
// the shuffled columns are pooled.
func BenchmarkRunTuples(b *testing.B) {
	const n = 1 << 19
	keys1 := randKeys(n, 1<<20, 54)
	keys2 := randKeys(n, 1<<20, 55)
	r1 := make([]Tuple[int64], n)
	r2 := make([]Tuple[int64], n)
	for i := 0; i < n; i++ {
		r1[i] = Tuple[int64]{Key: keys1[i], Payload: int64(i)}
		r2[i] = Tuple[int64]{Key: keys2[i], Payload: int64(-i)}
	}
	scheme, err := partition.NewHash(8, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunTuples(r1, r2, join.Equi{}, scheme, model, Config{Seed: 56, Mappers: 4}, nil)
	}
}
