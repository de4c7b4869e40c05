package sample

import (
	"math"
	"slices"
	"testing"

	"ewh/internal/join"
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
