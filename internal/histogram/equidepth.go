// Package histogram implements the approximate equi-depth histograms the
// partitioning schemes impose over each input relation's join keys (§III-A,
// [13] Chaudhuri-Motwani-Narasayya). The bucket boundaries of the two
// relations' histograms form the grid over the join matrix: each grid row
// (column) holds roughly n/ns tuples of R1 (R2), which is what makes the
// semi-perimeter of a region an accurate input-cost estimate.
package histogram

import (
	"fmt"
	"math"
	"slices"

	"ewh/internal/join"
	"ewh/internal/keysort"
)

// EquiDepth is an equi-depth histogram over join keys: buckets() contiguous
// half-open key ranges holding approximately equal tuple counts.
type EquiDepth struct {
	// bounds has len buckets+1; bucket i covers [bounds[i], bounds[i+1]).
	bounds []join.Key
}

// FromSample builds an ns-bucket approximate equi-depth histogram from a
// uniform random sample of a relation's join keys. The sample is copied and
// sorted; per [13] a sample of size Θ(ns·log n) suffices for bucket sizes
// within a small relative error with high probability.
//
// It returns an error if the sample is empty or ns < 1. If the sample has
// fewer distinct values than ns, the histogram degrades gracefully to fewer
// effective buckets (adjacent boundaries may coincide; empty buckets are
// removed).
func FromSample(sample []join.Key, ns int) (*EquiDepth, error) {
	if ns < 1 {
		return nil, fmt.Errorf("histogram: ns = %d < 1", ns)
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("histogram: empty sample")
	}
	sorted := slices.Clone(sample)
	keysort.Sort(sorted)
	return FromSorted(sorted, ns)
}

// FromSorted builds the histogram from an already-sorted sample without
// copying it: FromRanks over the slice.
func FromSorted(sorted []join.Key, ns int) (*EquiDepth, error) {
	return FromRanks(len(sorted), ns, func(i int) join.Key { return sorted[i] })
}

// FromRanks builds the ns-bucket histogram of n ordered keys that keyAt
// returns by rank (0-based, counting multiplicity): the first key, the keys
// at ranks ⌊i·n/ns⌋ for 0 < i < ns, and one past the last. A relation whose
// multiset is at hand gets its exact histogram this way without a sort
// (sample.KeyMultiset.Histogram); a sorted sample is the slice case,
// FromSorted.
func FromRanks(n, ns int, keyAt func(int) join.Key) (*EquiDepth, error) {
	if ns < 1 {
		return nil, fmt.Errorf("histogram: ns = %d < 1", ns)
	}
	if n <= 0 {
		return nil, fmt.Errorf("histogram: empty sample")
	}
	if ns > n {
		ns = n
	}
	bounds := make([]join.Key, 0, ns+1)
	bounds = append(bounds, keyAt(0))
	for i := 1; i < ns; i++ {
		q := keyAt(i * n / ns)
		// Skip duplicate boundaries: fewer effective buckets, never empty ones.
		if q > bounds[len(bounds)-1] {
			bounds = append(bounds, q)
		}
	}
	top := join.Key(math.MaxInt64)
	if last := keyAt(n - 1); last < math.MaxInt64 {
		top = last + 1
	}
	return &EquiDepth{bounds: appendTop(bounds, top)}, nil
}

// appendTop appends a histogram's final (exclusive) boundary, keeping the
// slice strictly increasing even at the very top of the key domain, where
// the usual +1 would overflow int64: boundaries stuck at MaxInt64 are
// pushed down instead, and the edge-bucket clamping absorbs the off-by-one
// approximation (keys at or above the last boundary route to the final
// bucket regardless).
func appendTop(bounds []join.Key, top join.Key) []join.Key {
	last := bounds[len(bounds)-1]
	switch {
	case top > last:
		return append(bounds, top)
	case last < math.MaxInt64:
		// All sample keys identical: single bucket [k, k+1).
		return append(bounds, last+1)
	}
	bounds = append(bounds, math.MaxInt64)
	for i := len(bounds) - 2; i >= 0 && bounds[i] >= bounds[i+1]; i-- {
		bounds[i] = bounds[i+1] - 1
	}
	return bounds
}

// Buckets returns the number of buckets.
func (h *EquiDepth) Buckets() int { return len(h.bounds) - 1 }

// Bucket returns the index of the bucket containing k. Keys below the first
// boundary map to bucket 0 and keys at or above the last map to the final
// bucket, so routing is total even for keys the sample missed.
func (h *EquiDepth) Bucket(k join.Key) int {
	// First i with bounds[i] > k (bounds are strictly increasing); bucket is
	// i-1.
	i, found := slices.BinarySearch(h.bounds, k)
	if found {
		i++
	}
	switch {
	case i == 0:
		return 0
	case i > h.Buckets():
		return h.Buckets() - 1
	default:
		return i - 1
	}
}

// Bounds returns the half-open key range [lo, hi) of bucket i.
func (h *EquiDepth) Bounds(i int) (lo, hi join.Key) {
	return h.bounds[i], h.bounds[i+1]
}

// Boundaries returns the full boundary slice (len Buckets()+1). Callers must
// not mutate it.
func (h *EquiDepth) Boundaries() []join.Key { return h.bounds }

// BucketRange returns the smallest bucket interval [first, last] whose key
// ranges intersect the inclusive key range [lo, hi]; ok is false when the
// range falls entirely outside the histogram domain... it never does, since
// edge buckets absorb out-of-domain keys, so ok is always true for lo <= hi.
func (h *EquiDepth) BucketRange(lo, hi join.Key) (first, last int, ok bool) {
	if lo > hi {
		return 0, -1, false
	}
	return h.Bucket(lo), h.Bucket(hi), true
}
