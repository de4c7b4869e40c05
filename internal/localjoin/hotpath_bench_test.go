package localjoin

import (
	"testing"

	"ewh/internal/join"
	"ewh/internal/keysort"
	"ewh/internal/workload"
)

// BenchmarkLocalJoinCount measures the band-join count on one worker's
// received tuples — the reduce-phase hot path of the engine.
func BenchmarkLocalJoinCount(b *testing.B) {
	r1 := randKeys(1<<17, 1<<16, 30)
	r2 := randKeys(1<<17, 1<<16, 31)
	cond := join.NewBand(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(r1, r2, cond)
	}
}

// BenchmarkLocalJoinCountInequality measures the inequality count, whose
// joinable ranges are half-open and whose output is quadratic — the count
// must still be linear after sorting.
func BenchmarkLocalJoinCountInequality(b *testing.B) {
	r1 := randKeys(1<<17, 1<<16, 32)
	r2 := randKeys(1<<17, 1<<16, 33)
	cond := join.Inequality{Op: join.LessEq}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(r1, r2, cond)
	}
}

// zipfKeys draws a Zipf-skewed workload — the paper's stressor, and the
// distribution where duplicate-heavy partitions separate the engines.
func zipfKeys(n int, domain int64, z float64, seed uint64) []join.Key {
	return workload.Zipfian(n, domain, z, seed)
}

// BenchmarkLocalJoinEngines is the engine × condition × distribution matrix
// over one worker's hot path: every local count engine against the equi and
// band conditions it serves, on uniform, duplicate-heavy and Zipf-skewed
// keys. Count copies and sorts per call (the non-owning entry
// point); CountSorted amortizes the sort outside the loop; the hash-form
// Resident and Count are the two real engines behind exec's selection knob. (The retired
// map-based baseline's numbers are in EXPERIMENTS.md.)
func BenchmarkLocalJoinEngines(b *testing.B) {
	const n = 1 << 17
	dists := []struct {
		name   string
		r1, r2 []join.Key
	}{
		{"uniform", randKeys(n, 1<<16, 34), randKeys(n, 1<<16, 35)},
		{"dups", randKeys(n, 1<<10, 36), randKeys(n, 1<<10, 37)},
		{"zipf", zipfKeys(n, 1<<16, 0.9, 38), zipfKeys(n, 1<<16, 0.9, 39)},
	}
	for _, d := range dists {
		s1 := append([]join.Key(nil), d.r1...)
		s2 := append([]join.Key(nil), d.r2...)
		keysort.Sort(s1)
		keysort.Sort(s2)
		band := join.NewBand(2)
		engines := []struct {
			name string
			run  func() int64
		}{
			{"equi/hash-engine", func() int64 { return residentCount(d.r1, d.r2, join.Equi{}, true, true, 0) }},
			{"equi/merge-sorted", func() int64 { return CountSorted(s1, s2, join.Equi{}) }},
			{"equi/merge-count", func() int64 { return Count(d.r1, d.r2, join.Equi{}) }},
			{"band/merge-sorted", func() int64 { return CountSorted(s1, s2, band) }},
			{"band/merge-count", func() int64 { return Count(d.r1, d.r2, band) }},
		}
		for _, e := range engines {
			b.Run(d.name+"/"+e.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = e.run()
				}
			})
		}
	}
}

// BenchmarkBuildInsertProbe isolates the incremental API: chunked Insert
// (the wire-arrival shape) and sealed ProbeCount, separately.
func BenchmarkBuildInsertProbe(b *testing.B) {
	const n = 1 << 17
	r1 := zipfKeys(n, 1<<16, 0.9, 40)
	probe := zipfKeys(n, 1<<16, 0.9, 41)
	b.Run("insert-chunked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld := NewBuild()
			for lo := 0; lo < len(r1); lo += 4096 {
				hi := lo + 4096
				if hi > len(r1) {
					hi = len(r1)
				}
				bld.Insert(r1[lo:hi])
			}
			bld.Seal()
		}
	})
	bld := NewBuild()
	bld.Insert(r1)
	bld.Seal()
	b.Run("probe-sealed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = bld.ProbeCount(probe)
		}
	})
}

// sink defeats dead-code elimination of benchmark loop bodies.
var sink int64
