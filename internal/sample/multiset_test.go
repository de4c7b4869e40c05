package sample

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/stats"
	"ewh/internal/workload"
)

// searchConds are the conditions whose joinable ranges the search tests ask.
var searchConds = []join.Condition{
	join.Equi{}, join.NewBand(0), join.NewBand(3),
	join.Inequality{Op: join.Less}, join.Inequality{Op: join.LessEq},
	join.Inequality{Op: join.Greater}, join.Inequality{Op: join.GreaterEq},
}

// checkSearch holds BuildMultiset(keys), in whichever form the rule picks,
// against a slices.BinarySearch over the whole width of the sorted distinct
// keys: Total, D2At's count, and SelectAt's first and last draw from the
// index D2At hands out (the index itself depends on the form). The probes are
// every key, its neighbours, the midpoint to the next key, the keys within 4
// of either end, both ends of the key domain and extra, each asked as an R1
// key under every condition and as the lower end of a range up to the next
// probe. D2s over all the probes, under every condition and under one whose
// type it does not know, must give D2At's (d2, at) for each and their sum.
func checkSearch(t testing.TB, keys, extra []join.Key) {
	t.Helper()
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	distinct := slices.Compact(slices.Clone(sorted))
	before := make([]int64, len(distinct)+1) // before[i] = tuples with a key below distinct[i]
	for i, k := range distinct {
		at, _ := slices.BinarySearch(sorted, k)
		before[i] = int64(at)
	}
	before[len(distinct)] = int64(len(sorted))

	m := BuildMultiset(keys)
	if m.Total() != int64(len(keys)) {
		t.Fatalf("multiset of %d keys: total %d", len(keys), m.Total())
	}
	ask := func(c join.Condition, k join.Key) {
		lo, hi := c.JoinableRange(k)
		var want int64
		var first, end int
		if lo <= hi {
			first, _ = slices.BinarySearch(distinct, lo)
			end = len(distinct)
			if hi < math.MaxInt64 {
				end, _ = slices.BinarySearch(distinct, hi+1)
			}
			want = before[end] - before[first]
		}
		d2, at := m.D2At(c, k)
		if d2 != want {
			t.Fatalf("%v, key %d, range [%d, %d]: D2At = %d, want %d", c, k, lo, hi, d2, want)
		}
		if d2 == 0 {
			return
		}
		if got := m.SelectAt(at, 0); got != distinct[first] {
			t.Fatalf("%v, key %d: SelectAt(%d, 0) = %d, want %d", c, k, at, got, distinct[first])
		}
		if got := m.SelectAt(at, d2-1); got != distinct[end-1] {
			t.Fatalf("%v, key %d: SelectAt(%d, %d) = %d, want %d", c, k, at, d2-1, got, distinct[end-1])
		}
	}
	probes := searchProbes(keys, extra)
	for i, k := range probes {
		for _, c := range searchConds {
			ask(c, k)
		}
		ask(keyRange{k, probes[(i+1)%len(probes)]}, 0)
	}
	d2s, ats := make([]int64, len(probes)), make([]int32, len(probes))
	for _, c := range append(slices.Clone(searchConds), keyRange{probes[len(probes)-1], probes[0]}) {
		sum := m.D2s(c, probes, d2s, ats)
		var want int64
		for i, k := range probes {
			d2, at := m.D2At(c, k)
			if d2s[i] != d2 || ats[i] != at {
				t.Fatalf("%v, key %d: D2s = (%d, %d), D2At = (%d, %d)", c, k, d2s[i], ats[i], d2, at)
			}
			want += d2
		}
		if sum != want {
			t.Fatalf("%v: D2s sums to %d, D2At to %d", c, sum, want)
		}
	}
}

// searchProbes returns both ends of the key domain, extra, every distinct
// key with its neighbours and the midpoint to the next distinct key, and the
// keys within 4 of the least and the greatest key, so that a band of up to 3
// finds the ends of a dense table at and past each side of its interior.
func searchProbes(keys, extra []join.Key) []join.Key {
	distinct := slices.Compact(slices.Sorted(slices.Values(keys)))
	probes := append([]join.Key{math.MinInt64, math.MaxInt64}, extra...)
	if len(distinct) > 0 {
		for _, end := range []join.Key{distinct[0], distinct[len(distinct)-1]} {
			for d := join.Key(-4); d <= 4; d++ {
				// Only the keys the addition reaches without wrapping.
				if k := end + d; (k < end) == (d < 0) {
					probes = append(probes, k)
				}
			}
		}
	}
	for i, k := range distinct {
		probes = append(probes, k)
		if k > math.MinInt64 {
			probes = append(probes, k-1)
		}
		if k < math.MaxInt64 {
			probes = append(probes, k+1)
		}
		if i+1 < len(distinct) {
			probes = append(probes, k+join.Key((uint64(distinct[i+1])-uint64(k))/2))
		}
	}
	return probes
}

// searchRows are the key domains that break radix arithmetic, the edges of
// the dense form's rule, and the two workload shapes the planner meets.
func searchRows() map[string][]join.Key {
	run := func(from join.Key, n int, more ...join.Key) []join.Key {
		out := make([]join.Key, n, n+len(more))
		for i := range out {
			out[i] = from + join.Key(i)
		}
		return append(out, more...)
	}
	// spread returns n keys from base to base+span, both ends included.
	spread := func(base join.Key, span int64, n int) []join.Key {
		r := stats.NewRNG(uint64(span))
		out := []join.Key{base, base + join.Key(span)}
		for len(out) < n {
			out = append(out, base+join.Key(r.Int64n(span+1)))
		}
		return out
	}
	return map[string][]join.Key{
		"empty":                        nil,
		"one key":                      {7},
		"all keys equal":               slices.Repeat([]join.Key{-3}, 100),
		"two keys, no room for a dir":  {-5, 9},
		"only the int64 extremes":      {math.MaxInt64, math.MinInt64},
		"run with repeats":             run(-20, 40, -20, 0, 0, 19),
		"dense run + outlier at 2^61":  run(0, 1000, math.MaxInt64/4),
		"dense run + outlier at -2^61": run(-500, 1000, math.MinInt64/4),
		"span 2^64 - 1":                run(-40, 80, math.MinInt64, math.MaxInt64, math.MaxInt64, math.MinInt64+1),
		"span+2 = 5n (dense)":          spread(-1000, 5*300-2, 300),
		"span+2 = 5n + 1 (sparse)":     spread(-1000, 5*300-1, 300),
		"span 2^31 - 1":                spread(1<<40, 1<<31-1, 300),
		"negative base":                spread(-1<<40, 700, 400),
		"MaxInt64 in a dense span":     spread(math.MaxInt64-400, 400, 200),
		"MinInt64 in a dense span":     spread(math.MinInt64, 400, 200),
		"X shape, x = 2000":            workload.X(2000, stats.NewRNG(42)),
		"zipf 0.8":                     workload.Zipfian(5000, 1000, 0.8, 42),
	}
}

// TestMultisetFormRule pins the rule at its edges: a table of span+2 slots
// is dense while it is at most 5 per key and a slot index fits an int32.
func TestMultisetFormRule(t *testing.T) {
	rows := searchRows()
	for name, dense := range map[string]bool{
		"span+2 = 5n (dense)":      true,
		"span+2 = 5n + 1 (sparse)": false,
		"span 2^31 - 1":            false,
		"run with repeats":         true,
		"negative base":            true,
		"MaxInt64 in a dense span": true,
		"MinInt64 in a dense span": true,
		"X shape, x = 2000":        true,
		"span 2^64 - 1":            false,
		"empty":                    false,
	} {
		if got := BuildMultiset(rows[name]).cum != nil; got != dense {
			t.Errorf("%s: dense = %v, want %v", name, got, dense)
		}
	}
	const n = (1<<31 + 1 + 4) / 5 // the fewest keys for which span 2^31 - 1 passes 5 per key
	for _, c := range []struct {
		n    int
		span uint64
		want bool
	}{
		{1, 0, true}, {2, 8, true}, {2, 9, false},
		{n, 1<<31 - 1, true}, {n - 1, 1<<31 - 1, false}, {4 * n, 1 << 31, false},
		{math.MaxUint32, 1000, true}, {math.MaxUint32 + 1, 1000, false},
	} {
		if got := denseFits(c.n, c.span); got != c.want {
			t.Errorf("denseFits(%d, %d) = %v, want %v", c.n, c.span, got, c.want)
		}
	}
}

// bothForms builds the dense and the sparse form over the same keys; the dense
// one is nil when its table would pass 2^24 slots, whatever the rule says.
func bothForms(keys []join.Key) (dense, sparse *KeyMultiset) {
	sparse = buildSparse(keys)
	if len(keys) == 0 {
		return nil, sparse
	}
	lo, hi := slices.Min(keys), slices.Max(keys)
	if span := uint64(hi) - uint64(lo); span < 1<<24 {
		dense = buildDense(keys, lo, span)
	}
	return dense, sparse
}

// TestMultisetFormsAgree is the differential check of the two forms: built
// over the same keys, they give the same Total, the same count for every probe
// under every condition, and the same key for every SelectAt(at, u), u < d2.
func TestMultisetFormsAgree(t *testing.T) {
	rows := searchRows()
	rows["uniform 600 over 2000"] = workload.Uniform(600, 2000, 9)
	// The dense build counts in bytes first: a key with 255 copies fills its
	// byte, and 256 or 511 wrap it, so the count starts again in 4 bytes.
	for _, c := range []struct {
		key    join.Key
		copies int
	}{{199, 255}, {100, 256}, {0, 511}} {
		keys := append(seqKeys(200), slices.Repeat([]join.Key{c.key}, c.copies-1)...)
		rows[fmt.Sprintf("%d copies of key %d", c.copies, c.key)] = keys
	}
	for name, keys := range rows {
		dense, sparse := bothForms(keys)
		if dense == nil || len(keys) > 1000 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			if dense.Total() != sparse.Total() {
				t.Fatalf("Total: dense %d, sparse %d", dense.Total(), sparse.Total())
			}
			for _, k := range searchProbes(keys, nil) {
				for _, c := range searchConds {
					d2, atD := dense.D2At(c, k)
					want, atS := sparse.D2At(c, k)
					if d2 != want {
						t.Fatalf("%v, key %d: D2At dense %d, sparse %d", c, k, d2, want)
					}
					for u := range d2 {
						if a, b := dense.SelectAt(atD, u), sparse.SelectAt(atS, u); a != b {
							t.Fatalf("%v, key %d: SelectAt(_, %d) dense %d, sparse %d", c, k, u, a, b)
						}
					}
				}
			}
		})
	}
}

func TestMultisetSearchMatchesBisection(t *testing.T) {
	for name, keys := range searchRows() {
		t.Run(name, func(t *testing.T) { checkSearch(t, keys, nil) })
	}
}

// FuzzMultisetSearch is the table over fuzz-chosen keys: the bytes are
// little-endian int64s, the first of which says how many of the rest are the
// multiset's keys; what is left over are extra probes. Narrow key spans get
// the dense form, wide ones the sparse. The seeds are the tail of each of the
// table's rows (where its outliers are), short enough that the fuzzer's
// minimizer does not eat a ten-second smoke run.
func FuzzMultisetSearch(f *testing.F) {
	for _, keys := range searchRows() {
		keys = keys[max(0, len(keys)-16):]
		seed := binary.LittleEndian.AppendUint64(nil, uint64(len(keys)))
		for _, k := range keys {
			seed = binary.LittleEndian.AppendUint64(seed, uint64(k))
		}
		f.Add(binary.LittleEndian.AppendUint64(seed, uint64(math.MaxInt64-1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*256 {
			t.Skip()
		}
		vals := make([]join.Key, len(data)/8)
		for i := range vals {
			vals[i] = join.Key(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(vals) == 0 {
			return
		}
		n := int(uint64(vals[0]) % uint64(len(vals)))
		checkSearch(t, vals[1:1+n], vals[1+n:])
	})
}

// checkHistogram holds the multiset's histogram, in each form the keys allow,
// to histogram.FromSorted over all the keys sorted, for every ns in nss.
func checkHistogram(t testing.TB, keys []join.Key, nss ...int) {
	t.Helper()
	dense, sparse := bothForms(keys)
	sorted := slices.Sorted(slices.Values(keys))
	for _, ns := range nss {
		want, wantErr := histogram.FromSorted(sorted, ns)
		for form, m := range map[string]*KeyMultiset{"dense": dense, "sparse": sparse} {
			if m == nil {
				continue
			}
			got, err := m.Histogram(ns)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s form, ns %d: error %v, want %v", form, ns, err, wantErr)
			}
			if err == nil && !slices.Equal(got.Boundaries(), want.Boundaries()) {
				t.Fatalf("%s form, ns %d: boundaries %v, want %v", form, ns, got.Boundaries(), want.Boundaries())
			}
		}
	}
}

// TestMultisetHistogramMatchesSortedRelation: the histogram the planner reads
// off R2's multiset is the one a sort of all of R2 gives, in both forms, for
// the search table's rows (int64 extremes, Zipf duplicates, the forms' edges)
// and for ns from 1 to past the distinct-key count.
func TestMultisetHistogramMatchesSortedRelation(t *testing.T) {
	for name, keys := range searchRows() {
		t.Run(name, func(t *testing.T) {
			distinct := len(slices.Compact(slices.Sorted(slices.Values(keys))))
			checkHistogram(t, keys, 0, 1, 2, 7, 64, distinct, distinct+1, 2*len(keys)+3)
		})
	}
}

// FuzzMultisetHistogram is TestMultisetHistogramMatchesSortedRelation over
// fuzz-chosen keys: the bytes are little-endian int64s, the first of which
// picks ns and the rest are the keys. The seeds are the tails of the search
// table's rows.
func FuzzMultisetHistogram(f *testing.F) {
	for _, keys := range searchRows() {
		seed := binary.LittleEndian.AppendUint64(nil, 5)
		for _, k := range keys[max(0, len(keys)-16):] {
			seed = binary.LittleEndian.AppendUint64(seed, uint64(k))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*256 {
			t.Skip()
		}
		vals := make([]join.Key, len(data)/8)
		for i := range vals {
			vals[i] = join.Key(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(vals) == 0 {
			return
		}
		checkHistogram(t, vals[1:], int(uint64(vals[0])%uint64(2*len(vals)+1)))
	})
}

// BenchmarkD2Pass times Stream-Sample's step 2 alone — D2s over R1's keys,
// in R1's arrival order, on one goroutine — over multisets large enough to
// leave the cache (BenchmarkStreamSample's 50k-key domain is L2-resident and
// cannot see a search that misses). ns/key is the metric to compare.
func BenchmarkD2Pass(b *testing.B) {
	shapes := []struct {
		name  string
		gen   func() (r1, r2 []join.Key, cond join.Condition)
		build bool // time BuildMultiset(r2) with every pass
	}{
		// adhoc-band: 741k distinct R2 keys over a span of 4.8M, dense form.
		{"bcb-1M", func() ([]join.Key, []join.Key, join.Condition) { return workload.BCB(200000, 3, 42) }, false},
		// The same with the build timed: adhoc-band's multiset, dense form.
		{"bcb-1M-build", func() ([]join.Key, []join.Key, join.Condition) { return workload.BCB(200000, 3, 42) }, true},
		// multiway-peer's stage 1, dense form.
		{"uniform-400k/1.2M", func() ([]join.Key, []join.Key, join.Condition) {
			return workload.Uniform(400000, 1200000, 42), workload.Uniform(400000, 1200000, 43), join.NewBand(1)
		}, false},
		// Few distinct keys, cache-resident.
		{"zipf-2M", func() ([]join.Key, []join.Key, join.Condition) {
			return workload.Zipfian(2000000, 1<<15, 0.8, 42), workload.Zipfian(2000000, 1<<15, 0.8, 43), join.Equi{}
		}, false},
		// One outlier stretches the key span to 2^61: the sparse form with its
		// degenerate directory.
		{"outlier", func() ([]join.Key, []join.Key, join.Condition) {
			dense := make([]join.Key, 1000001)
			for i := range dense {
				dense[i] = join.Key(i)
			}
			dense[len(dense)-1] = math.MaxInt64 / 4
			return workload.Uniform(1000000, 1000000, 42), dense, join.NewBand(3)
		}, false},
		// stream-flip's replan: a 1,024-key summary against a fresh 1M base,
		// so the multiset (and its directory) is built for 1,024 searches.
		{"summary-1024", func() ([]join.Key, []join.Key, join.Condition) {
			return workload.Uniform(1024, 4000000, 42), workload.Uniform(1000000, 4000000, 43), join.NewBand(25)
		}, true},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			r1, r2, cond := s.gen()
			m2 := BuildMultiset(r2)
			d2s, ats := make([]int64, len(r1)), make([]int32, len(r1))
			var sum int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.build {
					m2 = BuildMultiset(r2)
				}
				sum += m2.D2s(cond, r1, d2s, ats)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r1)), "ns/key")
			sinkD2 = sum
		})
	}
}

var sinkD2 int64
