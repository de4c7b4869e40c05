package exec

import (
	"fmt"
	"testing"

	"ewh/internal/bufpool"
	"ewh/internal/core"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
	"ewh/internal/stage"
	"ewh/internal/workload"
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
// tuple to a full grid row, stressing the group-table path. J = 4's rows of
// two (pool-small-jobs' band scheme) take the scatter's two-receiver case;
// J = 16's rows of four its walk.
func BenchmarkShuffleCI(b *testing.B) {
	const n1 = 1 << 19
	r1 := randKeys(n1, 1<<40, 52)
	var r2 []join.Key
	for _, j := range []int{4, 16} {
		scheme := partition.NewCI(j)
		b.Run(fmt.Sprintf("J=%d", j), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := Run(r1, r2, join.NewBand(1), scheme, model, Config{Seed: 53, Mappers: 4})
				if res.Output != 0 {
					b.Fatalf("expected empty join, got %d", res.Output)
				}
			}
		})
	}
}

// BenchmarkShuffleRegions measures the shuffle most joins run: both relations
// routed by a CSIO plan's regions (a slab lookup per key) and scattered,
// without the local joins, on the two plans the benchmark's region workloads
// replay: replay-equi-zipf's zipf equi-join and adhoc-band's BCB band join
// (β = 3). Narrowed routing sends nearly every key of either to one region,
// which receivers/tuple (routed ÷ input tuples) shows. The flat row is
// ShufflePair's two-pass form, which every exec.Local job takes; the chunked
// row is the form every session count job takes, each mapper's per-worker
// sub-blocks drained as they arrive. ns/tuple is per input tuple of either
// relation.
func BenchmarkShuffleRegions(b *testing.B) {
	const n = 1 << 20
	bcb1, bcb2, band := workload.BCB(200_000, 3, 61)
	plans := []struct {
		name   string
		r1, r2 []join.Key
		cond   join.Condition
	}{
		{"zipf-equi", workload.Zipfian(n, n, 0.6, 57), workload.Zipfian(n, n, 0.6, 58), join.Equi{}},
		{"bcb-band", bcb1, bcb2, band},
	}
	cfg := Config{Seed: 60, Mappers: 4}
	for _, p := range plans {
		plan, err := core.PlanCSIO(p.r1, p.r2, p.cond, core.Options{J: 4, Model: model, Seed: 59})
		if err != nil || plan.Fallback {
			b.Fatalf("%s: no region plan: fallback %v, err %v", p.name, plan.Fallback, err)
		}
		input := float64(len(p.r1) + len(p.r2))
		report := func(b *testing.B, routed int) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/input, "ns/tuple")
			b.ReportMetric(float64(routed)/input, "receivers/tuple")
		}
		b.Run(p.name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			routed := 0
			for i := 0; i < b.N; i++ {
				s1, s2 := ShufflePair(p.r1, p.r2, plan.Scheme, cfg)
				if routed = s1.Total() + s2.Total(); routed < int(input) {
					b.Fatalf("shuffled %d tuples of %d", routed, int(input))
				}
				s1.Release()
				s2.Release()
			}
			report(b, routed)
		})
		b.Run(p.name+"/chunked", func(b *testing.B) {
			b.ReportAllocs()
			routed := 0
			for i := 0; i < b.N; i++ {
				c1, c2 := shufflePairChunked(p.r1, p.r2, plan.Scheme, cfg)
				routed = 0
				for _, cs := range []*ChunkStream{c1, c2} {
					for w := 0; w < cs.workers; w++ {
						for c := range cs.Worker(w) {
							routed += len(c.Keys)
							bufpool.Keys.Put(c.Keys)
						}
					}
				}
				if routed < int(input) {
					b.Fatalf("shuffled %d tuples of %d", routed, int(input))
				}
			}
			report(b, routed)
		})
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

// BenchmarkJoinPairs times the pair join in both forms of relation 2 over a
// multiway-peer stage-1 block (100k uniform keys a side at 3 slots per key,
// band 1, ≈ 3 partners a key) and over a sparse block of 64 slots per key,
// outside the span rule, where the ranked form takes the argsort.
func BenchmarkJoinPairs(b *testing.B) {
	shapes := []struct {
		name string
		span int64
	}{
		{"stage1-3slots", 300_000},
		{"sparse-64slots", 6_400_000},
	}
	forms := []struct {
		name string
		form pairForm
	}{{"table", pairTable}, {"argsort", pairArgsort}}
	const n = 100_000
	for _, s := range shapes {
		r1, r2 := randKeys(n, s.span, 60), randKeys(n, s.span, 61)
		for _, f := range forms {
			b.Run(s.name+"/"+f.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					joinPairs(r1, r2, join.NewBand(1), f.form, func([]PairIdx) {})
				}
			})
		}
	}
}

// BenchmarkWindowClose times one stream worker closing a window in
// stream-flip's shape: summarize a 25,000-key shard (the window summary's
// size), then count it against a sealed band-25 base of 250,000 keys over
// a 1,000,000-key span (a rank table), stamping both steps as a worker does.
// Each window starts from the shard in arrival order; ns/key is per window key.
func BenchmarkWindowClose(b *testing.B) {
	const span, nBase, nWin = 1_000_000, 250_000, 25_000
	clk := stage.Start()
	res := localjoin.NewResident(join.NewBand(25), false, nil, &clk)
	res.Seal(randKeys(nBase, span, 61))
	arrival := randKeys(nWin, span, 62)
	win := make([]join.Key, nWin)
	sp := StatsSpec{Seed: 63}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(win, arrival)
		n, sum := CloseWindow(res, win, sp, 0, uint32(i))
		if sum == nil || sum.Count != nWin || n == 0 {
			b.Fatalf("window %d: summary %v, count %d", i, sum, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nWin, "ns/key")
}
