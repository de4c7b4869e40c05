// Package sample implements the statistics-collection machinery of §IV:
// fixed-size uniform input sampling (a reservoir, Algorithm R — standing in
// for the paper's Bernoulli input sample, see DESIGN.md "Substitutions"),
// the R2 key multiset, and the parallel Stream-Sample algorithm that produces a uniform random sample of the
// *join output* without executing the join. Stream-Sample also yields the
// output size m = Σ d2(t1.A) over the R1 keys it walks — exact for all of R1,
// scaled by the caller for a sample of it — which the sample matrix needs to
// scale cell frequencies (§III-A).
package sample

import (
	"ewh/internal/join"
	"ewh/internal/stats"
)

// FixedSize returns a uniform random sample of exactly min(size, len(keys))
// keys without replacement, via reservoir sampling (Algorithm R). The input
// is not modified.
func FixedSize(keys []join.Key, size int, rng *stats.RNG) []join.Key {
	if size <= 0 {
		return nil
	}
	if size >= len(keys) {
		out := make([]join.Key, len(keys))
		copy(out, keys)
		return out
	}
	// A draw past the reservoir writes the spare slot out[size] instead of
	// branching on j < size, which mispredicts on a large share of draws. The
	// draws and the sample are those of the branchy form.
	out := make([]join.Key, size+1)
	copy(out, keys[:size])
	for i := size; i < len(keys); i++ {
		j := rng.Int64n(int64(i) + 1)
		out[min(j, int64(size))] = keys[i]
	}
	return out[:size:size]
}
