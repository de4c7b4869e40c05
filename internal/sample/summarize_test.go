package sample

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/planio"
	"ewh/internal/stats"
)

func TestSummarizeCanonicalAndDeterministic(t *testing.T) {
	rng := stats.NewRNG(11)
	keys := make([]join.Key, 5000)
	for i := range keys {
		keys[i] = rng.Int64n(700)
	}
	s1 := Summarize(keys, 256, 32, stats.NewRNG(99))
	s2 := Summarize(keys, 256, 32, stats.NewRNG(99))
	if err := s1.Validate(); err != nil {
		t.Fatal(err)
	}
	if s1.Count != 5000 || s1.Cap != 256 || len(s1.Keys) != 256 {
		t.Fatalf("summary shape: count=%d cap=%d sample=%d", s1.Count, s1.Cap, len(s1.Keys))
	}
	if !slices.Equal(s1.Keys, s2.Keys) || !slices.Equal(s1.Bounds, s2.Bounds) {
		t.Fatal("summarize not deterministic for a fixed seed")
	}
	// Different seeds draw different samples but identical histograms (the
	// histogram scans the full shard, no randomness).
	s3 := Summarize(keys, 256, 32, stats.NewRNG(100))
	if slices.Equal(s1.Keys, s3.Keys) {
		t.Fatal("distinct seeds drew identical samples")
	}
	if !slices.Equal(s1.Bounds, s3.Bounds) {
		t.Fatal("histogram boundaries depend on the sampling seed")
	}
}

func TestSummarizeSmallAndEmptyShards(t *testing.T) {
	empty := Summarize(nil, 64, 8, stats.NewRNG(1))
	if err := empty.Validate(); err != nil {
		t.Fatal(err)
	}
	if empty.Count != 0 || empty.Keys != nil || empty.Bounds != nil {
		t.Fatalf("empty shard summary carries data: %+v", empty)
	}
	small := Summarize([]join.Key{9, 3, 3}, 64, 8, stats.NewRNG(1))
	if small.Count != 3 || !slices.Equal(small.Keys, []join.Key{3, 3, 9}) {
		t.Fatalf("small shard not fully enumerated: %+v", small)
	}
}

func TestSummarizeTopOfKeyDomain(t *testing.T) {
	// Keys at MaxInt64 must not wrap the histogram's exclusive top boundary
	// into an invalid (non-increasing) bounds slice — the summary codec
	// validates and would otherwise fail the whole pipeline on legal keys.
	keys := make([]join.Key, 100)
	for i := range keys {
		keys[i] = math.MaxInt64
	}
	keys[99] = 5
	s := Summarize(keys, 4096, 256, stats.NewRNG(3))
	if err := s.Validate(); err != nil {
		t.Fatalf("top-of-domain summary invalid: %v", err)
	}
	all := Summarize(keys[:99], 8, 4, stats.NewRNG(4)) // every key MaxInt64
	if err := all.Validate(); err != nil {
		t.Fatalf("all-MaxInt64 summary invalid: %v", err)
	}
}

func TestSummarizeFeedsStreamSampleExactly(t *testing.T) {
	// When the cap covers the whole shard, Stream-Sample over the summary's
	// keys reproduces the exact output size m the full relation would give.
	rng := stats.NewRNG(5)
	r1 := make([]join.Key, 800)
	r2 := make([]join.Key, 600)
	for i := range r1 {
		r1[i] = rng.Int64n(300)
	}
	for i := range r2 {
		r2[i] = rng.Int64n(300)
	}
	sum := Summarize(r1, len(r1), 16, stats.NewRNG(2))
	m2 := BuildMultiset(r2)
	cond := join.NewBand(2)
	got := StreamSampleWith(sum.Keys, m2, cond, 0, 2, stats.NewRNG(3)).M
	want := StreamSample(r1, r2, cond, 0, 2, nil).M
	if got != want {
		t.Fatalf("summary-fed m = %d, exact m = %d", got, want)
	}
}

// oracleSummary summarizes keys the way Summarize always has: a sorted clone,
// a reservoir drawn from it, the equi-depth histogram over it.
func oracleSummary(keys []join.Key, cap, buckets int, seed uint64) *stats.Summary {
	cap, buckets = max(cap, 1), max(buckets, 1)
	if len(keys) == 0 {
		return &stats.Summary{Cap: cap}
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	smp := FixedSize(sorted, cap, stats.NewRNG(seed))
	slices.Sort(smp)
	h, err := histogram.FromSorted(sorted, buckets)
	if err != nil {
		panic(err)
	}
	return &stats.Summary{Count: int64(len(keys)), Cap: cap, Keys: smp, Bounds: slices.Clone(h.Boundaries())}
}

// fuzzKeys widens fuzz bytes into keys: with wide, eight bytes a key over the
// whole int64 domain; else a byte a key, signed, so keys collide often.
func fuzzKeys(data []byte, wide bool) []join.Key {
	if !wide {
		out := make([]join.Key, len(data))
		for i, v := range data {
			out[i] = join.Key(int64(v) - 128)
		}
		return out
	}
	out := make([]join.Key, len(data)/8)
	for i := range out {
		out[i] = join.Key(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}

// FuzzSummarize holds the in-place form to the summary a sorted clone gives,
// byte for byte as encoded; its input must end sorted, and Summarize's must
// end untouched.
func FuzzSummarize(f *testing.F) {
	wideSeed := func(keys ...join.Key) []byte {
		var b []byte
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint64(b, uint64(k))
		}
		return b
	}
	many := make([]byte, 3000)
	for i := range many {
		many[i] = byte(i * 37 % 251)
	}
	f.Add([]byte{}, false, uint16(64), uint8(8), uint64(1))                         // n = 0
	f.Add([]byte{200}, false, uint16(64), uint8(8), uint64(2))                      // n = 1
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7}, false, uint16(4), uint8(3), uint64(3)) // duplicates
	f.Add([]byte{0, 3, 127, 128, 9, 1, 0}, false, uint16(64), uint8(4), uint64(4))  // negative keys, n < cap
	f.Add(many, false, uint16(8), uint8(16), uint64(5))                             // n ≫ cap
	f.Add(wideSeed(math.MaxInt64/4, -5, math.MaxInt64/4, math.MaxInt64, math.MinInt64, 0),
		true, uint16(2), uint8(2), uint64(6))
	f.Add(wideSeed(math.MaxInt64/4, math.MaxInt64/4, math.MaxInt64/4), true, uint16(0), uint8(0), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, wide bool, cap uint16, buckets uint8, seed uint64) {
		if len(data) > 1<<13 {
			t.Skip()
		}
		keys := fuzzKeys(data, wide)
		want, err := planio.EncodeSummary(oracleSummary(keys, int(cap), int(buckets), seed))
		if err != nil {
			t.Fatalf("oracle summary: %v", err)
		}
		sorted := slices.Sorted(slices.Values(keys))

		in := slices.Clone(keys)
		got, err := planio.EncodeSummary(SummarizeInPlace(in, int(cap), int(buckets), stats.NewRNG(seed)))
		if err != nil {
			t.Fatalf("in-place summary: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("in-place summary of %d keys (cap %d, %d buckets) differs from the sorted clone's", len(keys), cap, buckets)
		}
		if !slices.Equal(in, sorted) {
			t.Fatalf("in-place summary left its %d keys unsorted", len(keys))
		}

		in = slices.Clone(keys)
		got, err = planio.EncodeSummary(Summarize(in, int(cap), int(buckets), stats.NewRNG(seed)))
		if err != nil {
			t.Fatalf("summary: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("summary of %d keys (cap %d, %d buckets) differs from the sorted clone's", len(keys), cap, buckets)
		}
		if !slices.Equal(in, keys) {
			t.Fatalf("Summarize reordered its %d keys", len(keys))
		}
	})
}
