package sample

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

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

// checkSearch holds BuildMultiset(keys) against the search the directory
// replaced — slices.BinarySearch over the whole width of the distinct keys —
// for D2At's count and index and SelectAt's first and last draw. The probes
// are every key, its neighbours, the midpoint to the next key, both ends of
// the key domain and extra, each asked as an R1 key under every condition and
// as the lower end of a range up to the next probe.
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
	if len(m.keys) != len(distinct) || m.Total() != int64(len(keys)) {
		t.Fatalf("multiset of %d keys: %d distinct, total %d; want %d and %d",
			len(keys), len(m.keys), m.Total(), len(distinct), len(keys))
	}

	probes := append([]join.Key{math.MinInt64, math.MaxInt64, join.MinKey, join.MaxKey}, extra...)
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
	ask := func(c join.Condition, k join.Key) {
		lo, hi := c.JoinableRange(k)
		var want int64
		var wantAt, end int
		if lo <= hi {
			wantAt, _ = slices.BinarySearch(distinct, lo)
			end = len(distinct)
			if hi < math.MaxInt64 {
				end, _ = slices.BinarySearch(distinct, hi+1)
			}
			want = before[end] - before[wantAt]
		}
		d2, at := m.D2At(c, k)
		if d2 != want || int(at) != wantAt {
			t.Fatalf("%v, key %d, range [%d, %d]: D2At = (%d, %d), want (%d, %d)", c, k, lo, hi, d2, at, want, wantAt)
		}
		if d2 == 0 {
			return
		}
		if got := m.SelectAt(at, 0); got != distinct[wantAt] {
			t.Fatalf("%v, key %d: SelectAt(%d, 0) = %d, want %d", c, k, at, got, distinct[wantAt])
		}
		if got := m.SelectAt(at, d2-1); got != distinct[end-1] {
			t.Fatalf("%v, key %d: SelectAt(%d, %d) = %d, want %d", c, k, at, d2-1, got, distinct[end-1])
		}
	}
	for i, k := range probes {
		for _, c := range searchConds {
			ask(c, k)
		}
		ask(keyRange{k, probes[(i+1)%len(probes)]}, 0)
	}
}

// searchRows are the key domains that break radix arithmetic, and the two
// workload shapes the planner meets.
func searchRows() map[string][]join.Key {
	run := func(from join.Key, n int, more ...join.Key) []join.Key {
		out := make([]join.Key, n, n+len(more))
		for i := range out {
			out[i] = from + join.Key(i)
		}
		return append(out, more...)
	}
	return map[string][]join.Key{
		"empty":                         nil,
		"one key":                       {7},
		"all keys equal":                slices.Repeat([]join.Key{-3}, 100),
		"two keys, no room for a dir":   {-5, 9},
		"only the int64 extremes":       {math.MaxInt64, math.MinInt64},
		"dense run + outlier at MaxKey": run(0, 1000, join.MaxKey),
		"dense run + outlier at MinKey": run(-500, 1000, join.MinKey),
		"span 2^64 - 1":                 run(-40, 80, math.MinInt64, math.MaxInt64, math.MaxInt64, math.MinInt64+1),
		"X shape, x = 2000":             workload.X(2000, stats.NewRNG(42)),
		"zipf 0.8":                      workload.Zipfian(5000, 1000, 0.8, 42),
	}
}

func TestMultisetSearchMatchesBisection(t *testing.T) {
	for name, keys := range searchRows() {
		t.Run(name, func(t *testing.T) { checkSearch(t, keys, nil) })
	}
}

// FuzzMultisetSearch is the table over fuzz-chosen keys: the bytes are
// little-endian int64s, the first of which says how many of the rest are the
// multiset's keys; what is left over are extra probes. The seeds are the tail
// of each of the table's rows (where its outliers are), short enough that the
// fuzzer's minimizer does not eat a ten-second smoke run.
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

// BenchmarkD2Pass times Stream-Sample's step 2 alone — one D2At per R1 key,
// in R1's arrival order, on one goroutine — over multisets large enough to
// leave the cache (BenchmarkStreamSample's 50k-key domain is L2-resident and
// cannot see a search that misses). ns/key is the metric to compare.
func BenchmarkD2Pass(b *testing.B) {
	shapes := []struct {
		name  string
		gen   func() (r1, r2 []join.Key, cond join.Condition)
		build bool // time BuildMultiset(r2) with every pass
	}{
		// adhoc-band: 741k distinct R2 keys, 12 MB of keys + prefix sums.
		{"bcb-1M", func() ([]join.Key, []join.Key, join.Condition) { return workload.BCB(200000, 3, 42) }, false},
		// multiway-peer's stage 1.
		{"uniform-400k/1.2M", func() ([]join.Key, []join.Key, join.Condition) {
			return workload.Uniform(400000, 1200000, 42), workload.Uniform(400000, 1200000, 43), join.NewBand(1)
		}, false},
		// Few distinct keys, cache-resident: the directory must not cost here.
		{"zipf-2M", func() ([]join.Key, []join.Key, join.Condition) {
			return workload.Zipfian(2000000, 1<<15, 0.8, 42), workload.Zipfian(2000000, 1<<15, 0.8, 43), join.Equi{}
		}, false},
		// One outlier stretches the key span to 2^61: the degenerate directory.
		{"outlier", func() ([]join.Key, []join.Key, join.Condition) {
			dense := make([]join.Key, 1000001)
			for i := range dense {
				dense[i] = join.Key(i)
			}
			dense[len(dense)-1] = join.MaxKey
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
			var sum int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.build {
					m2 = BuildMultiset(r2)
				}
				for _, k := range r1 {
					d2, at := m2.D2At(cond, k)
					sum += d2 + int64(at)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r1)), "ns/key")
			sinkD2 = sum
		})
	}
}

var sinkD2 int64
