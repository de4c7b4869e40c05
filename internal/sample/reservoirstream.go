package sample

import (
	"sync"

	"ewh/internal/join"
	"ewh/internal/stats"
)

// StreamSampleReservoir is the one-pass variant of the parallel
// Stream-Sample, following §IV-A's description literally: each shard feeds
// an Efraimidis-Spirakis weighted reservoir (priority u^(1/d2(t.A))), the
// per-shard Max-Heap reservoirs merge into a single without-replacement
// sample S1, and S1 is converted to a with-replacement sample by re-drawing
// proportionally to weight [8]. Partner keys are then drawn uniformly from
// each sampled tuple's joinable multiset.
//
// Compared to StreamSample (exact WR via weight positions, two passes over
// R1), this trades a small WOR→WR approximation for a single pass over R1 —
// the trade the paper makes; both estimators agree in distribution for
// so ≪ m. Exposed for the sampling ablation and for streaming callers that
// cannot do two passes.
func StreamSampleReservoir(r1, r2 []join.Key, cond join.Condition, so, workers int, rng *stats.RNG) *OutputSample {
	n := len(r1)
	if n == 0 {
		return &OutputSample{}
	}
	workers = min(max(workers, 1), n)
	m2 := BuildMultiset(r2)

	// One parallel pass: per-shard reservoirs plus per-shard weight totals
	// (the weight sum is free in the same pass and yields the exact m).
	type shardRes struct {
		res *Reservoir
		sum int64
	}
	shards := make([]shardRes, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shards[w].res = NewReservoir(max(so, 1), rng.Split())
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := shardBounds(n, workers, w)
			for _, k := range r1[lo:hi] {
				d2, _ := m2.D2At(cond, k)
				shards[w].sum += d2
				shards[w].res.Add(k, float64(d2))
			}
		}(w)
	}
	wg.Wait()

	merged := shards[0].res
	var m int64 = shards[0].sum
	for w := 1; w < workers; w++ {
		merged.Merge(shards[w].res)
		m += shards[w].sum
	}
	out := &OutputSample{M: m}
	if m == 0 || so <= 0 {
		return out
	}

	// WOR → WR: redraw so items from the merged sample proportionally to
	// weight (cumulative inversion).
	items := merged.Items()
	cum := make([]float64, len(items)+1)
	for i, it := range items {
		cum[i+1] = cum[i] + it.Weight
	}
	total := cum[len(items)]
	out.Pairs = make([][2]join.Key, 0, so)
	for i := 0; i < so; i++ {
		u := rng.Float64() * total
		// Binary search the cumulative weights.
		lo, hi := 0, len(items)
		for lo < hi-1 {
			mid := (lo + hi) / 2
			if cum[mid] <= u {
				lo = mid
			} else {
				hi = mid
			}
		}
		// Reservoir items have weight d2 >= 1 (Add drops weightless keys).
		k := items[lo].Key
		d2, at := m2.D2At(cond, k)
		out.Pairs = append(out.Pairs, [2]join.Key{k, m2.SelectAt(at, rng.Int64n(d2))})
	}
	return out
}
