package localjoin

import (
	"slices"
	"testing"

	"ewh/internal/bufpool"
	"ewh/internal/join"
	"ewh/internal/keysort"
	"ewh/internal/stats"
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
// point); CountSorted amortizes the sort outside the loop; the dense-window
// Resident is the form an equi side of these spans takes.
// (The retired map-based baseline's numbers are in EXPERIMENTS.md.)
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
			{"equi/hash-engine", func() int64 {
				side := newResident(join.Equi{}, Dense, true, nil, nil)
				side.Seal(d.r1)
				return side.Finish(d.r2)
			}},
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

// BenchmarkBuildInsertProbe isolates the equi side over a key-shape axis, in
// chunks (two, a worker's sub-blocks from two mappers, unless the row says
// otherwise): /insert builds through the Build wrapper, which lends them to
// the side's Seal as one block; /stream feeds them one by one through Insert,
// each copied into a pooled buffer as a worker decodes a frame (the copy is
// part of the op); /probe is the sealed ProbeCount. The zipf rows differ only
// in arrival order; one-key is the multiplicity extreme; dense-distinct stays
// in the dense window, as does ascending-4096, 256 chunks each over its own
// slice of the span; sparse is past the window's budget and seals into the
// sorted block, whose probe sorts a copy of the probe relation; zipf-4096 is
// the zipf keys in chunks each too sparse for the window alone, though dense
// as a whole; zipf0.6-2M is replay-equi-zipf's whole relation. Either way in,
// the side keeps its chunks and counts them into the window once, at Seal.
func BenchmarkBuildInsertProbe(b *testing.B) {
	const n = 1 << 17
	zipf, zipfProbe := zipfKeys(n, 1<<16, 0.9, 40), zipfKeys(n, 1<<16, 0.9, 41)
	ascending := func(keys []join.Key) []join.Key {
		keys = slices.Clone(keys)
		keysort.Sort(keys)
		return keys
	}
	same := make([]join.Key, n)
	for i := range same {
		same[i] = 7
	}
	distinct := make([]join.Key, 1<<20)
	for i := range distinct {
		distinct[i] = join.Key(i)
	}
	shuffled := slices.Clone(distinct[:n])
	rng := stats.NewRNG(42)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := rng.Int64n(int64(i + 1))
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	shapes := []struct {
		name      string
		chunk     int // keys per Insert; 0: half the relation
		r1, probe []join.Key
	}{
		{"zipf-shuffled", 0, zipf, zipfProbe},
		{"zipf-ascending", 0, ascending(zipf), ascending(zipfProbe)},
		{"one-key", 0, same, same},
		{"dense-distinct", 0, shuffled, randKeys(n, n, 43)},
		{"ascending-4096", 4096, distinct, randKeys(n, 1<<20, 44)},
		{"sparse", 0, sparseKeys(n, 45), sparseKeys(n, 46)},
		{"zipf-4096", 4096, zipf, zipfProbe},
		{"zipf0.6-2M", 0, zipfKeys(2_000_000, 2_000_000, 0.6, 47), zipfKeys(2_000_000, 2_000_000, 0.6, 48)},
	}
	for _, s := range shapes {
		chunk := s.chunk
		if chunk == 0 {
			chunk = (len(s.r1) + 1) / 2
		}
		build := func() *Build {
			bld := NewBuild()
			for c := range slices.Chunk(s.r1, chunk) {
				bld.Insert(c)
			}
			bld.Seal()
			return bld
		}
		b.Run(s.name+"/insert", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build()
			}
		})
		b.Run(s.name+"/stream", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				side := NewResident(join.Equi{}, true, nil, nil)
				stream(side, s.r1, chunk)
				side.Seal()
			}
		})
		bld := build()
		probe := slices.Clone(s.probe)
		b.Run(s.name+"/probe", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bld.side.dense == nil {
					copy(probe, s.probe) // the sorted block sorts its probe in place
				}
				sink = bld.ProbeCount(probe)
			}
		})
	}
}

// BenchmarkResidentCount is one count job through a resident side: seal R1,
// lent whole, probe R2, as exec.Local counts a worker's block. The first
// four shapes are adhoc-band's worker blocks — two dense ones, about
// 100k keys over 16k values, and two of about 550k keys at span/n 6.9 and 4.0
// — which seal into the rank table; wide-64, at span/n 64, stays on the sort +
// sweep. The last two are pool-small-jobs' blocks: a band one at span/n 8.2,
// within the table's budget, and an equi one at span/n 4.1 that arrives from
// two mappers, streamed through Insert as a worker decodes it, the first
// chunk alone spanning 8.2 slots a key; judged whole at Seal, it stays dense.
// sorted-probe-250k arrives in key order, as a stream window or a stage-1
// share does, against a merge-form side at span/n 80; at ten times that
// side, its sort was most of the op.
func BenchmarkResidentCount(b *testing.B) {
	band3 := join.NewBand(3)
	shapes := []struct {
		name         string
		n1, n2       int
		span1, span2 int64
		seed1, seed2 uint64
		cond         join.Condition
		chunks       int  // above 1: streamed through Insert
		sorted       bool // the probe arrives in key order
	}{
		{"dense-105k", 105_000, 120_000, 17_600, 20_100, 50, 51, band3, 1, false},
		{"dense-88k", 88_000, 205_000, 14_500, 14_500, 52, 53, band3, 1, false},
		{"span6.9-530k", 530_000, 500_000, 3_660_000, 3_260_000, 54, 55, band3, 1, false},
		{"span4.0-557k", 557_000, 380_000, 2_225_000, 1_520_000, 56, 57, band3, 1, false},
		{"wide-64", 100_000, 100_000, 6_400_000, 6_400_000, 58, 59, band3, 1, false},
		{"band-span8.2-10k", 10_000, 10_000, 82_000, 82_000, 60, 61, join.NewBand(2), 1, false},
		{"equi-span4.1-5k-2chunks", 5_000, 5_000, 20_500, 20_500, 62, 63, join.Equi{}, 2, false},
		{"sorted-probe-250k", 25_000, 250_000, 2_000_000, 2_000_000, 64, 65, band3, 1, true},
	}
	for _, s := range shapes {
		r1, r2 := randKeys(s.n1, s.span1, s.seed1), randKeys(s.n2, s.span2, s.seed2)
		if s.sorted {
			slices.Sort(r2)
		}
		probe := make([]join.Key, len(r2))
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(probe, r2) // the merge form sorts its probe in place
				side := NewResident(s.cond, true, nil, nil)
				if s.chunks > 1 {
					stream(side, r1, (s.n1+s.chunks-1)/s.chunks)
					side.Seal()
				} else {
					side.Seal(r1)
				}
				sink = side.Finish(probe)
			}
		})
	}
}

// stream inserts keys into side in chunks of chunk keys, each copied into a
// pooled buffer just before, as a worker decodes a frame into its chunk.
func stream(side *Resident, keys []join.Key, chunk int) {
	for c := range slices.Chunk(keys, chunk) {
		side.Insert(append(bufpool.Keys.Get(len(c))[:0], c...))
	}
}

// sink defeats dead-code elimination of benchmark loop bodies.
var sink int64
