package stats_test

import (
	"slices"
	"strings"
	"testing"

	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/stats"
)

// buildSummary assembles a well-formed summary directly (the sample package
// owns the production builder; these tests exercise the merge algebra).
func buildSummary(t *testing.T, keys []join.Key, capacity, buckets int) *stats.Summary {
	t.Helper()
	if len(keys) == 0 {
		return &stats.Summary{Cap: capacity}
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	h, err := histogram.FromSorted(sorted, buckets)
	if err != nil {
		t.Fatal(err)
	}
	smp := sorted
	if len(smp) > capacity {
		// Deterministic evenly spaced subsample stands in for the uniform one.
		out := make([]join.Key, capacity)
		for i := range out {
			out[i] = sorted[(2*i+1)*len(sorted)/(2*capacity)]
		}
		smp = out
	}
	s := &stats.Summary{Count: int64(len(keys)), Cap: capacity,
		Keys: slices.Clone(smp), Bounds: slices.Clone(h.Boundaries())}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func randKeys(rng *stats.RNG, n int, domain int64) []join.Key {
	out := make([]join.Key, n)
	for i := range out {
		out[i] = rng.Int64n(domain) - domain/2
	}
	return out
}

func TestValidateRejectsMalformedSummaries(t *testing.T) {
	cases := map[string]*stats.Summary{
		"negative count":  {Count: -1, Cap: 4},
		"zero cap":        {Count: 0, Cap: 0},
		"over cap":        {Count: 9, Cap: 2, Keys: []join.Key{1, 2, 3}, Bounds: []join.Key{0, 9}},
		"over count":      {Count: 1, Cap: 8, Keys: []join.Key{1, 2}, Bounds: []join.Key{0, 9}},
		"unsorted sample": {Count: 4, Cap: 8, Keys: []join.Key{3, 1}, Bounds: []join.Key{0, 9}},
		"empty w/ data":   {Count: 0, Cap: 8, Keys: []join.Key{1}},
		"no sample":       {Count: 3, Cap: 8, Bounds: []join.Key{0, 9}},
		"one boundary":    {Count: 3, Cap: 8, Keys: []join.Key{1}, Bounds: []join.Key{0}},
		"flat boundaries": {Count: 3, Cap: 8, Keys: []join.Key{1}, Bounds: []join.Key{0, 0}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMergeSummariesCommutes(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		rng := stats.NewRNG(seed)
		a := buildSummary(t, randKeys(rng, int(rng.Int64n(3000)), 500), 64+rng.Intn(64), 8+rng.Intn(8))
		b := buildSummary(t, randKeys(rng, int(rng.Int64n(3000)), 500), 64+rng.Intn(64), 8+rng.Intn(8))
		ab, err := stats.MergeSummaries(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := stats.MergeSummaries(b, a)
		if err != nil {
			t.Fatal(err)
		}
		if ab.Count != ba.Count || ab.Cap != ba.Cap ||
			!slices.Equal(ab.Keys, ba.Keys) || !slices.Equal(ab.Bounds, ba.Bounds) {
			t.Fatalf("seed %d: merge not commutative:\n%+v\n%+v", seed, ab, ba)
		}
		if err := ab.Validate(); err != nil {
			t.Fatalf("seed %d: merged summary invalid: %v", seed, err)
		}
	}
}

func TestMergeSummariesCountsAndCaps(t *testing.T) {
	rng := stats.NewRNG(3)
	a := buildSummary(t, randKeys(rng, 5000, 1000), 128, 16)
	b := buildSummary(t, randKeys(rng, 100, 1000), 64, 16)
	m, err := stats.MergeSummaries(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 5100 {
		t.Fatalf("merged count %d, want 5100", m.Count)
	}
	if m.Cap != 128 {
		t.Fatalf("merged cap %d, want 128", m.Cap)
	}
	if len(m.Keys) > m.Cap {
		t.Fatalf("merged sample %d exceeds cap %d", len(m.Keys), m.Cap)
	}
	if !slices.IsSorted(m.Keys) {
		t.Fatal("merged sample not sorted")
	}
}

func TestMergeSummariesEmptySides(t *testing.T) {
	rng := stats.NewRNG(4)
	a := buildSummary(t, randKeys(rng, 500, 100), 64, 8)
	empty := buildSummary(t, nil, 32, 8)
	m, err := stats.MergeSummaries(a, empty)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != a.Count || !slices.Equal(m.Keys, a.Keys) || !slices.Equal(m.Bounds, a.Bounds) {
		t.Fatal("merging with an empty shard changed the summary")
	}
	both, err := stats.MergeSummaries(empty, empty)
	if err != nil {
		t.Fatal(err)
	}
	if both.Count != 0 || both.Keys != nil || both.Bounds != nil {
		t.Fatalf("empty merge produced data: %+v", both)
	}
}

func TestMergeSummariesSingleSlot(t *testing.T) {
	// The degenerate one-slot capacity keeps exactly one key, symmetrically.
	a := &stats.Summary{Count: 10, Cap: 1, Keys: []join.Key{5}, Bounds: []join.Key{0, 10}}
	b := &stats.Summary{Count: 3, Cap: 1, Keys: []join.Key{7}, Bounds: []join.Key{5, 9}}
	ab, err := stats.MergeSummaries(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := stats.MergeSummaries(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Keys) != 1 || !slices.Equal(ab.Keys, ba.Keys) {
		t.Fatalf("one-slot merge asymmetric or oversized: %v vs %v", ab.Keys, ba.Keys)
	}
	if ab.Keys[0] != 5 {
		t.Fatalf("one-slot merge kept %d, want the heavier shard's 5", ab.Keys[0])
	}
}

// TestFoldSummariesInSliceOrder pins the one fold every coordinator uses:
// nil entries are skipped, a lone summary comes back as is, and the rest
// merge left to right, ((a ⊕ b) ⊕ c); a malformed entry names its index.
func TestFoldSummariesInSliceOrder(t *testing.T) {
	rng := stats.NewRNG(7)
	a := buildSummary(t, randKeys(rng, 2000, 500), 64, 8)
	b := buildSummary(t, randKeys(rng, 1500, 500), 96, 12)
	c := buildSummary(t, randKeys(rng, 900, 500), 80, 10)
	if got, err := stats.FoldSummaries([]*stats.Summary{nil, nil}); got != nil || err != nil {
		t.Fatalf("all-nil fold: %+v, %v", got, err)
	}
	if got, err := stats.FoldSummaries([]*stats.Summary{nil, b, nil}); got != b || err != nil {
		t.Fatalf("lone summary folded to %+v, %v", got, err)
	}
	ab, err := stats.MergeSummaries(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stats.MergeSummaries(ab, c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stats.FoldSummaries([]*stats.Summary{a, nil, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count || got.Cap != want.Cap ||
		!slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.Bounds, want.Bounds) {
		t.Fatalf("fold %+v, want ((a ⊕ b) ⊕ c) %+v", got, want)
	}
	if _, err := stats.FoldSummaries([]*stats.Summary{a, {Cap: 0}}); err == nil || !strings.Contains(err.Error(), "summary 1") {
		t.Fatalf("a malformed entry folded: %v", err)
	}
}
