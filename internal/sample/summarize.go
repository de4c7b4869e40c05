package sample

import (
	"slices"

	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/keysort"
	"ewh/internal/stats"
)

// AdaptiveCap sizes a summary's sample cap from the shard it summarizes:
// n/16, clamped to [64, cap]. A small shard stops inflating its summary with
// sample slots it cannot fill informatively (the full equi-depth histogram
// already carries its distribution), while a large shard keeps the full
// configured resolution. The result never exceeds cap, so merge capacity
// invariants are unchanged; it is a pure function of the shard SIZE, so
// summaries stay deterministic and reproducible.
func AdaptiveCap(n, cap int) int {
	c := n / 16
	if c < 64 {
		c = 64
	}
	if c > cap {
		c = cap
	}
	return c
}

// Summarize builds the mergeable statistics summary of one shard of keys —
// the worker side of distributed statistics collection: an exact count, a
// uniform without-replacement sample of at most cap keys (sorted, the
// canonical form), and a buckets-bucket equi-depth histogram over the FULL
// shard, which keeps quantile accuracy the capped sample cannot. The result
// is deterministic for a given rng seed, so a re-run reproduces the same
// summary bit for bit. keys is left as it was: Summarize is SummarizeInPlace
// over a clone.
func Summarize(keys []join.Key, cap, buckets int, rng *stats.RNG) *stats.Summary {
	return SummarizeInPlace(slices.Clone(keys), cap, buckets, rng)
}

// SummarizeInPlace is Summarize for a caller that owns keys: it sorts them in
// place and summarizes the sorted shard, which the caller may then read in
// key order. The summary is the one Summarize gives, byte for byte.
func SummarizeInPlace(keys []join.Key, cap, buckets int, rng *stats.RNG) *stats.Summary {
	if cap < 1 {
		cap = 1
	}
	if buckets < 1 {
		buckets = 1
	}
	if len(keys) == 0 {
		return &stats.Summary{Cap: cap}
	}
	keysort.Sort(keys)
	h, err := histogram.FromSorted(keys, buckets)
	if err != nil {
		// Unreachable for non-empty input; keep the summary well-formed.
		return &stats.Summary{Cap: cap}
	}
	// Reservoir sampling is order-oblivious, so drawing from the sorted shard
	// is still uniform.
	smp := FixedSize(keys, cap, rng)
	keysort.Sort(smp)
	return &stats.Summary{
		Count:  int64(len(keys)),
		Cap:    cap,
		Keys:   smp,
		Bounds: slices.Clone(h.Boundaries()),
	}
}
