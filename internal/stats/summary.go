package stats

import (
	"fmt"
	"slices"

	"ewh/internal/histogram"
	"ewh/internal/join"
)

// Summary is the mergeable statistics summary of one multiset of join keys —
// the unit of the distributed statistics collection: after stage 1 of a
// multiway pipeline each worker summarizes its LOCAL intermediate keys with
// one of these, ships it to the coordinator (planio carries the canonical
// binary encoding), and the coordinator merges the per-worker summaries into
// a global one that is statistically equivalent to summarizing the union —
// without a single intermediate tuple transiting the coordinator.
//
// A summary carries three things: the exact shard size (Count), a uniform
// without-replacement sample of the shard's keys (Keys, at most Cap of
// them, kept sorted — the canonical form), and the shard's equi-depth
// histogram boundaries over ALL its keys (Bounds), which preserve quantile
// accuracy the capped sample alone cannot.
type Summary struct {
	// Count is the exact number of keys summarized.
	Count int64
	// Cap is the sample capacity the summary was built with; len(Keys) is at
	// most min(Cap, Count).
	Cap int
	// Keys is a uniform random sample of the summarized keys, sorted
	// ascending (duplicates allowed — it samples a multiset).
	Keys []join.Key
	// Bounds holds the equi-depth histogram boundaries over the full shard
	// (len >= 2, strictly increasing); nil exactly when Count == 0.
	Bounds []join.Key
}

// Validate checks the canonical-form invariants the codec and the merge rely
// on.
func (s *Summary) Validate() error {
	if s.Count < 0 {
		return fmt.Errorf("stats: summary count %d < 0", s.Count)
	}
	if s.Cap < 1 {
		return fmt.Errorf("stats: summary capacity %d < 1", s.Cap)
	}
	if len(s.Keys) > s.Cap {
		return fmt.Errorf("stats: summary holds %d sampled keys, capacity %d", len(s.Keys), s.Cap)
	}
	if int64(len(s.Keys)) > s.Count {
		return fmt.Errorf("stats: summary holds %d sampled keys of %d counted", len(s.Keys), s.Count)
	}
	if !slices.IsSorted(s.Keys) {
		return fmt.Errorf("stats: summary sample not sorted")
	}
	if s.Count == 0 {
		if len(s.Keys) != 0 || len(s.Bounds) != 0 {
			return fmt.Errorf("stats: empty summary carries data")
		}
		return nil
	}
	if len(s.Keys) == 0 {
		return fmt.Errorf("stats: non-empty summary without a sample")
	}
	if len(s.Bounds) < 2 {
		return fmt.Errorf("stats: non-empty summary with %d histogram boundaries", len(s.Bounds))
	}
	for i := 1; i < len(s.Bounds); i++ {
		if s.Bounds[i] <= s.Bounds[i-1] {
			return fmt.Errorf("stats: summary boundaries not strictly increasing at %d", i)
		}
	}
	return nil
}

// systematicPick selects n evenly spaced elements from the sorted sample —
// the deterministic subsample MergeSummaries shrinks each side with. Evenly
// spaced positions in a sorted uniform sample cover the quantile space
// evenly, so the pick behaves like a (lower-variance) uniform subsample.
func systematicPick(keys []join.Key, n int) []join.Key {
	if n >= len(keys) {
		return slices.Clone(keys)
	}
	out := make([]join.Key, n)
	for i := range out {
		out[i] = keys[(2*i+1)*len(keys)/(2*n)]
	}
	return out
}

// mergeSorted merges two sorted key slices.
func mergeSorted(a, b []join.Key) []join.Key {
	out := make([]join.Key, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// MergeSummaries combines two summaries of DISJOINT shards into a summary of
// their union. Counts add; samples combine (subsampled proportionally to the
// shard counts when the union exceeds the merged capacity, via deterministic
// systematic picks); histogram boundaries merge through the weighted
// piecewise-uniform CDF (histogram.Merge). The merge is deterministic and
// commutative — MergeSummaries(a, b) and MergeSummaries(b, a) encode
// identically — which the planio fuzz harness enforces. It is not exactly
// associative (a fold may shed at most one sampled key per step), so
// coordinators fold worker summaries with FoldSummaries, in a fixed order.
func MergeSummaries(a, b *Summary) (*Summary, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	capacity := a.Cap
	if b.Cap > capacity {
		capacity = b.Cap
	}
	out := &Summary{Count: a.Count + b.Count, Cap: capacity}
	if a.Count == 0 && b.Count == 0 {
		return out, nil
	}
	if a.Count == 0 {
		out.Keys = slices.Clone(b.Keys)
		out.Bounds = slices.Clone(b.Bounds)
		return out, nil
	}
	if b.Count == 0 {
		out.Keys = slices.Clone(a.Keys)
		out.Bounds = slices.Clone(a.Bounds)
		return out, nil
	}

	switch {
	case len(a.Keys)+len(b.Keys) <= capacity:
		out.Keys = mergeSorted(a.Keys, b.Keys)
	case capacity < 2:
		// One slot: keep the heavier shard's pick; ties break to the smaller
		// key, so the choice stays symmetric under swapping a and b.
		pa := systematicPick(a.Keys, 1)[0]
		pb := systematicPick(b.Keys, 1)[0]
		k := pa
		if b.Count > a.Count || (b.Count == a.Count && pb < pa) {
			k = pb
		}
		out.Keys = []join.Key{k}
	default:
		// Proportional shares, floored — symmetric under swapping a and b
		// (ceil on one side would not be).
		na := int(int64(capacity) * a.Count / out.Count)
		nb := int(int64(capacity) * b.Count / out.Count)
		if na < 1 {
			na = 1
		}
		if nb < 1 {
			nb = 1
		}
		out.Keys = mergeSorted(systematicPick(a.Keys, na), systematicPick(b.Keys, nb))
	}
	// The clamps above only fire when a share floors to zero, which needs
	// capacity*share < 1 on that side; with capacity >= 2 the other side's
	// floor then absorbs the slack, so the merged sample respects Cap.

	ha, err := histogram.FromBounds(a.Bounds)
	if err != nil {
		return nil, err
	}
	hb, err := histogram.FromBounds(b.Bounds)
	if err != nil {
		return nil, err
	}
	ns := ha.Buckets()
	if hb.Buckets() > ns {
		ns = hb.Buckets()
	}
	merged, err := histogram.Merge(ha, a.Count, hb, b.Count, ns)
	if err != nil {
		return nil, err
	}
	out.Bounds = slices.Clone(merged.Boundaries())
	return out, nil
}

// FoldSummaries merges the summaries of disjoint shards left to right in
// slice order, skipping nil entries; nil when every entry is. The fixed
// order keeps a fold reproducible, since MergeSummaries is commutative but
// not exactly associative. The first non-nil summary is returned as is when
// it is the only one.
func FoldSummaries(summaries []*Summary) (*Summary, error) {
	var merged *Summary
	for i, s := range summaries {
		switch {
		case s == nil:
		case merged == nil:
			merged = s
		default:
			var err error
			if merged, err = MergeSummaries(merged, s); err != nil {
				return nil, fmt.Errorf("stats: folding summary %d: %w", i, err)
			}
		}
	}
	return merged, nil
}
