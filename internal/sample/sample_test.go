package sample

import (
	"math"
	"slices"
	"testing"

	"ewh/internal/join"
	"ewh/internal/stats"
)

func seqKeys(n int) []join.Key {
	out := make([]join.Key, n)
	for i := range out {
		out[i] = join.Key(i)
	}
	return out
}

func TestFixedSize(t *testing.T) {
	r := stats.NewRNG(2)
	keys := seqKeys(1000)
	s := FixedSize(keys, 100, r)
	if len(s) != 100 {
		t.Fatalf("got %d keys, want 100", len(s))
	}
	seen := map[join.Key]int{}
	for _, k := range s {
		seen[k]++
		if seen[k] > 1 {
			t.Fatal("without-replacement sample repeated a position-unique key")
		}
	}
	if got := FixedSize(keys, 2000, r); len(got) != 1000 {
		t.Error("oversized request should return all keys")
	}
	if FixedSize(keys, 0, r) != nil {
		t.Error("size 0 should return nil")
	}
}

// TestFixedSizeMatchesAlgorithmR holds the reservoir, which writes every
// draw, to Algorithm R written with the branch: at sizes at and around both
// ends, the same sample, and the same draws, so the stream after it matches.
func TestFixedSizeMatchesAlgorithmR(t *testing.T) {
	branchy := func(keys []join.Key, size int, rng *stats.RNG) []join.Key {
		if size <= 0 {
			return nil
		}
		out := slices.Clone(keys[:min(size, len(keys))])
		for i := size; i < len(keys); i++ {
			if j := rng.Int64n(int64(i) + 1); j < int64(size) {
				out[j] = keys[i]
			}
		}
		return out
	}
	keys := seqKeys(500)
	for _, size := range []int{0, 1, 2, len(keys) / 2, len(keys) - 1, len(keys), len(keys) + 1} {
		for seed := range uint64(4) {
			got, want := stats.NewRNG(seed), stats.NewRNG(seed)
			if a, b := FixedSize(keys, size, got), branchy(keys, size, want); !slices.Equal(a, b) {
				t.Fatalf("size %d, seed %d: sample %v, Algorithm R %v", size, seed, a, b)
			}
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("size %d, seed %d: the next draw is %d, after Algorithm R %d", size, seed, a, b)
			}
		}
	}
}

func TestFixedSizeUniformity(t *testing.T) {
	// Each key should appear with probability size/n.
	r := stats.NewRNG(3)
	counts := make([]int, 20)
	const trials = 20000
	keys := seqKeys(20)
	for i := 0; i < trials; i++ {
		for _, k := range FixedSize(keys, 5, r) {
			counts[k]++
		}
	}
	want := trials * 5 / 20
	for k, c := range counts {
		if math.Abs(float64(c-want)) > float64(want)/5 {
			t.Errorf("key %d sampled %d times, want ~%d", k, c, want)
		}
	}
}

// keyRange is a condition whose joinable range is the same [lo, hi] for every
// key: it addresses the multiset's range searches directly.
type keyRange struct{ lo, hi join.Key }

func (r keyRange) Matches(_, b join.Key) bool               { return r.lo <= b && b <= r.hi }
func (r keyRange) JoinableRange(join.Key) (lo, hi join.Key) { return r.lo, r.hi }
func (r keyRange) String() string                           { return "test range" }

func TestMultisetCounts(t *testing.T) {
	keys := []join.Key{5, 3, 5, 1, 5, 3}
	dense, sparse := bothForms(keys)
	for form, m := range map[string]*KeyMultiset{"dense": dense, "sparse": sparse} {
		if m.Total() != 6 {
			t.Fatalf("%s: total %d, want 6", form, m.Total())
		}
		cases := []struct {
			lo, hi      join.Key
			want        int64
			first, last join.Key
		}{
			{1, 5, 6, 1, 5}, {3, 5, 5, 3, 5}, {4, 10, 3, 5, 5}, {6, 10, 0, 0, 0}, {5, 1, 0, 0, 0}, {1, 1, 1, 1, 1},
			{math.MinInt64, math.MaxInt64, 6, 1, 5}, {2, math.MaxInt64, 5, 3, 5},
		}
		for _, c := range cases {
			got, at := m.D2At(keyRange{c.lo, c.hi}, 0)
			if got != c.want {
				t.Errorf("%s: D2At over [%d,%d] = %d, want %d", form, c.lo, c.hi, got, c.want)
				continue
			}
			if got == 0 {
				continue
			}
			if f, l := m.SelectAt(at, 0), m.SelectAt(at, got-1); f != c.first || l != c.last {
				t.Errorf("%s: [%d,%d] draws first %d last %d, want %d and %d", form, c.lo, c.hi, f, l, c.first, c.last)
			}
		}
	}
}

func TestMultisetSelect(t *testing.T) {
	dense, sparse := bothForms([]join.Key{1, 3, 3, 7})
	for form, m := range map[string]*KeyMultiset{"dense": dense, "sparse": sparse} {
		wants := []join.Key{1, 3, 3, 7}
		_, from1 := m.D2At(keyRange{1, 7}, 0)
		for u, want := range wants {
			if got := m.SelectAt(from1, int64(u)); got != want {
				t.Errorf("%s: SelectAt(from 1, %d) = %d, want %d", form, u, got, want)
			}
		}
		_, from3 := m.D2At(keyRange{3, 7}, 0)
		if got := m.SelectAt(from3, 2); got != 7 {
			t.Errorf("%s: SelectAt(from 3, 2) = %d, want 7", form, got)
		}
	}
}

// D2At against Matches itself, so a joinable range that lies (a strict
// inequality's ±1 wrapping at an int64 extreme) shows as a count of matches
// that do not exist; the same queries give Stream-Sample's M.
func TestMultisetD2MatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(7)
	keys := make([]join.Key, 500)
	for i := range keys {
		keys[i] = r.Int64n(100)
	}
	m := BuildMultiset(keys)
	queries := []join.Key{math.MinInt64, math.MaxInt64}
	for k := join.Key(math.MinInt8); k <= math.MaxInt8; k++ {
		queries = append(queries, k)
	}
	for _, cond := range searchConds {
		var m1 int64
		for _, k := range queries {
			var brute int64
			for _, k2 := range keys {
				if cond.Matches(k, k2) {
					brute++
				}
			}
			if d2, _ := m.D2At(cond, k); d2 != brute {
				t.Errorf("%v: D2At(%d) = %d, %d keys match", cond, k, d2, brute)
			}
			m1 += brute
		}
		if got := StreamSampleWith(queries, m, cond, 0, 3, nil).M; got != m1 {
			t.Errorf("%v: M = %d, %d pairs match", cond, got, m1)
		}
	}
}

// exactOutputSize is the nested-loop ground truth.
func exactOutputSize(r1, r2 []join.Key, cond join.Condition) int64 {
	var m int64
	for _, a := range r1 {
		for _, b := range r2 {
			if cond.Matches(a, b) {
				m++
			}
		}
	}
	return m
}

func TestStreamSampleExactM(t *testing.T) {
	r := stats.NewRNG(8)
	r1 := make([]join.Key, 300)
	r2 := make([]join.Key, 400)
	for i := range r1 {
		r1[i] = r.Int64n(200)
	}
	for i := range r2 {
		r2[i] = r.Int64n(200)
	}
	for _, cond := range []join.Condition{join.NewBand(2), join.Equi{}, join.Inequality{Op: join.LessEq}} {
		s := StreamSample(r1, r2, cond, 100, 4, stats.NewRNG(9))
		want := exactOutputSize(r1, r2, cond)
		if s.M != want {
			t.Errorf("%v: M = %d, want %d", cond, s.M, want)
		}
		if want > 0 && len(s.Pairs) != 100 {
			t.Errorf("%v: %d pairs, want 100", cond, len(s.Pairs))
		}
		for _, p := range s.Pairs {
			if !cond.Matches(p[0], p[1]) {
				t.Errorf("%v: sampled non-matching pair %v", cond, p)
			}
		}
	}
}

func TestStreamSampleEmptyCases(t *testing.T) {
	r := stats.NewRNG(10)
	if s := StreamSample(nil, []join.Key{1}, join.Equi{}, 10, 2, r); s.M != 0 || len(s.Pairs) != 0 {
		t.Error("empty r1 should give empty sample")
	}
	// Disjoint ranges: zero output.
	s := StreamSample([]join.Key{1, 2}, []join.Key{100, 200}, join.NewBand(1), 10, 2, r)
	if s.M != 0 || len(s.Pairs) != 0 {
		t.Errorf("disjoint join gave M=%d pairs=%d", s.M, len(s.Pairs))
	}
	// so = 0: M still computed.
	s = StreamSample([]join.Key{1, 2}, []join.Key{1, 2}, join.Equi{}, 0, 2, r)
	if s.M != 2 || len(s.Pairs) != 0 {
		t.Errorf("so=0 gave M=%d pairs=%d", s.M, len(s.Pairs))
	}
}

func TestStreamSampleUniformity(t *testing.T) {
	// Join with known output: R1 = {0 (x1), 10 (x3)}, R2 = {0 (x2), 10 (x1)},
	// equi-join output = 1*2 + 3*1 = 5 tuples. Pair (0,0) holds 2/5 of the
	// output; over many samples its frequency must approach 2/5.
	r1 := []join.Key{0, 10, 10, 10}
	r2 := []join.Key{0, 0, 10}
	rng := stats.NewRNG(11)
	var zeroZero, total int
	for trial := 0; trial < 300; trial++ {
		s := StreamSample(r1, r2, join.Equi{}, 50, 3, rng)
		for _, p := range s.Pairs {
			total++
			if p[0] == 0 && p[1] == 0 {
				zeroZero++
			}
		}
	}
	got := float64(zeroZero) / float64(total)
	if math.Abs(got-0.4) > 0.05 {
		t.Fatalf("pair (0,0) frequency %v, want ~0.4", got)
	}
}

func TestStreamSampleParallelConsistency(t *testing.T) {
	// M must not depend on the worker count.
	r := stats.NewRNG(12)
	r1 := make([]join.Key, 1000)
	r2 := make([]join.Key, 1000)
	for i := range r1 {
		r1[i] = r.Int64n(500)
		r2[i] = r.Int64n(500)
	}
	cond := join.NewBand(4)
	var first int64 = -1
	for _, workers := range []int{1, 2, 7, 16} {
		s := StreamSample(r1, r2, cond, 64, workers, stats.NewRNG(13))
		if first < 0 {
			first = s.M
		} else if s.M != first {
			t.Fatalf("workers=%d gave M=%d, earlier %d", workers, s.M, first)
		}
		if len(s.Pairs) != 64 {
			t.Fatalf("workers=%d gave %d pairs", workers, len(s.Pairs))
		}
	}
}

// With so = 0 Stream-Sample draws nothing (no RNG needed) and returns the
// exact output size alone.
func TestStreamSampleSizeOnly(t *testing.T) {
	r := stats.NewRNG(14)
	r1 := make([]join.Key, 200)
	r2 := make([]join.Key, 300)
	for i := range r1 {
		r1[i] = r.Int64n(100)
	}
	for i := range r2 {
		r2[i] = r.Int64n(100)
	}
	cond := join.NewBand(1)
	s := StreamSample(r1, r2, cond, 0, 4, nil)
	if want := exactOutputSize(r1, r2, cond); s.M != want || len(s.Pairs) != 0 {
		t.Fatalf("so = 0: M = %d with %d pairs, want %d and none", s.M, len(s.Pairs), want)
	}
	if StreamSample(nil, r2, cond, 0, 4, nil).M != 0 {
		t.Error("empty r1 should give 0")
	}
}

func BenchmarkStreamSample(b *testing.B) {
	r := stats.NewRNG(15)
	r1 := make([]join.Key, 100000)
	r2 := make([]join.Key, 100000)
	for i := range r1 {
		r1[i] = r.Int64n(50000)
		r2[i] = r.Int64n(50000)
	}
	cond := join.NewBand(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StreamSample(r1, r2, cond, 1000, 8, stats.NewRNG(uint64(i)))
	}
}
