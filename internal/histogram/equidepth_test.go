package histogram_test

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/stats"
)

func TestFromSampleErrors(t *testing.T) {
	if _, err := histogram.FromSample(nil, 4); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := histogram.FromSample([]join.Key{1}, 0); err == nil {
		t.Error("ns=0 accepted")
	}
}

func TestSingleKeySample(t *testing.T) {
	h, err := histogram.FromSample([]join.Key{7, 7, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != 1 {
		t.Fatalf("got %d buckets, want 1", h.Buckets())
	}
	if h.Bucket(7) != 0 || h.Bucket(100) != 0 || h.Bucket(-5) != 0 {
		t.Error("all keys must route to the single bucket")
	}
}

func TestEquiDepthBalance(t *testing.T) {
	r := stats.NewRNG(1)
	keys := make([]join.Key, 40000)
	for i := range keys {
		keys[i] = r.Int64n(1 << 30)
	}
	const ns = 16
	h, err := histogram.FromSample(keys, ns)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != ns {
		t.Fatalf("got %d buckets, want %d", h.Buckets(), ns)
	}
	counts := make([]int, ns)
	for _, k := range keys {
		counts[h.Bucket(k)]++
	}
	want := len(keys) / ns
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d holds %d keys, want ~%d", i, c, want)
		}
	}
}

func TestEquiDepthSkewedBalance(t *testing.T) {
	// Even under heavy key skew, equi-depth buckets hold ~equal tuple counts.
	r := stats.NewRNG(2)
	z := stats.NewZipf(1000, 1.0)
	keys := make([]join.Key, 50000)
	for i := range keys {
		keys[i] = z.Draw(r)
	}
	h, err := histogram.FromSample(keys, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, h.Buckets())
	for _, k := range keys {
		counts[h.Bucket(k)]++
	}
	want := len(keys) / h.Buckets()
	for i, c := range counts {
		// Skewed heads force wide tolerances: a single heavy key cannot be
		// split across buckets, so allow 2x.
		if c > 2*want {
			t.Errorf("bucket %d holds %d keys, want <= %d", i, c, 2*want)
		}
	}
}

func TestBucketLookupConsistent(t *testing.T) {
	sample := []join.Key{1, 2, 3, 10, 11, 12, 100, 101, 102, 1000, 1001, 1002}
	h, err := histogram.FromSample(sample, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(k16 int16) bool {
		k := join.Key(k16)
		b := h.Bucket(k)
		if b < 0 || b >= h.Buckets() {
			return false
		}
		lo, hi := h.Bounds(b)
		if k >= lo && k < hi {
			return true
		}
		// Out-of-domain keys clamp to edge buckets.
		return (b == 0 && k < lo) || (b == h.Buckets()-1 && k >= hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsAreSortedAndDistinct(t *testing.T) {
	r := stats.NewRNG(3)
	keys := make([]join.Key, 1000)
	for i := range keys {
		keys[i] = r.Int64n(50) // many duplicates
	}
	h, err := histogram.FromSample(keys, 32)
	if err != nil {
		t.Fatal(err)
	}
	b := h.Boundaries()
	if !slices.IsSorted(b) {
		t.Fatal("boundaries not sorted")
	}
	for i := 1; i < len(b); i++ {
		if b[i] == b[i-1] {
			t.Fatal("duplicate boundary produced an empty bucket")
		}
	}
}

func TestBucketRange(t *testing.T) {
	h, err := histogram.FromSample([]join.Key{0, 10, 20, 30, 40, 50, 60, 70}, 4)
	if err != nil {
		t.Fatal(err)
	}
	first, last, ok := h.BucketRange(15, 45)
	if !ok || first > last {
		t.Fatalf("BucketRange(15,45) = (%d,%d,%v)", first, last, ok)
	}
	if _, _, ok := h.BucketRange(5, 4); ok {
		t.Error("inverted range should not be ok")
	}
	// Full-domain range covers all buckets.
	first, last, _ = h.BucketRange(math.MinInt64, math.MaxInt64)
	if first != 0 || last != h.Buckets()-1 {
		t.Errorf("full range = (%d,%d), want (0,%d)", first, last, h.Buckets()-1)
	}
}

func TestFromSortedNoCopySemantics(t *testing.T) {
	sorted := []join.Key{1, 2, 3, 4, 5, 6, 7, 8}
	h, err := histogram.FromSorted(sorted, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != 2 {
		t.Fatalf("got %d buckets", h.Buckets())
	}
	lo, hi := h.Bounds(0)
	if lo != 1 || hi != 5 {
		t.Errorf("bucket 0 = [%d,%d), want [1,5)", lo, hi)
	}
}

func TestBucketRangeJoinableQueries(t *testing.T) {
	// The planner's candidate counting uses BucketRange with joinable key
	// ranges; verify clamping against a known layout.
	h, err := histogram.FromSample([]join.Key{0, 100, 200, 300, 400, 500, 600, 700}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Range covering exactly one bucket.
	first, last, ok := h.BucketRange(150, 180)
	if !ok || first != last {
		t.Fatalf("BucketRange(150,180) = (%d,%d,%v)", first, last, ok)
	}
	// Range below the domain clamps to bucket 0.
	first, last, _ = h.BucketRange(-100, -50)
	if first != 0 || last != 0 {
		t.Fatalf("below-domain range = (%d,%d)", first, last)
	}
	// Range above the domain clamps to the last bucket.
	first, last, _ = h.BucketRange(10000, 20000)
	if first != h.Buckets()-1 || last != h.Buckets()-1 {
		t.Fatalf("above-domain range = (%d,%d)", first, last)
	}
}

func TestFromSampleHugeNS(t *testing.T) {
	// Requesting more buckets than sample values degrades to one bucket per
	// distinct value.
	h, err := histogram.FromSample([]join.Key{5, 1, 3}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() > 3 {
		t.Fatalf("%d buckets from 3 values", h.Buckets())
	}
	for _, k := range []join.Key{1, 3, 5} {
		b := h.Bucket(k)
		lo, hi := h.Bounds(b)
		if k < lo || k >= hi {
			t.Fatalf("key %d outside its bucket [%d,%d)", k, lo, hi)
		}
	}
}

func TestNegativeKeys(t *testing.T) {
	keys := []join.Key{-500, -400, -300, -200, -100, 0, 100, 200}
	h, err := histogram.FromSample(keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, h.Buckets())
	for _, k := range keys {
		counts[h.Bucket(k)]++
	}
	for i, c := range counts {
		if c != 2 {
			t.Fatalf("bucket %d holds %d keys, want 2", i, c)
		}
	}
}
