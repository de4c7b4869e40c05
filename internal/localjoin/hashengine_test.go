package localjoin

import (
	"math"
	"testing"

	"ewh/internal/join"
	"ewh/internal/stats"
)

// dupHeavyKeys draws keys from a tiny domain so almost every key repeats —
// the multiplicity-table stress shape.
func dupHeavyKeys(n int, seed uint64) []join.Key {
	return randKeys(n, 8, seed)
}

// sparseKeys draws n keys from n/2 values uniform over 2⁴⁰: a span no
// dense Build takes. The values come from one fixed stream, so relations of
// any seed share them and join.
func sparseKeys(n int, seed uint64) []join.Key {
	values := randKeys(max(n/2, 1), 1<<40, 7)
	r := stats.NewRNG(seed)
	out := make([]join.Key, n)
	for i := range out {
		out[i] = values[r.Int64n(int64(len(values)))]
	}
	return out
}

// signedKeys mixes negative and positive keys around zero, exercising the
// sign-biased partitioning digit.
func signedKeys(n int, seed uint64) []join.Key {
	r := stats.NewRNG(seed)
	out := make([]join.Key, n)
	for i := range out {
		out[i] = r.Int64n(200) - 100
	}
	return out
}

// TestEquiLike is the engine choice where it is made: the pure-equality
// conditions, and they alone, get the hash form of a resident side.
func TestEquiLike(t *testing.T) {
	cases := []struct {
		cond join.Condition
		want bool
	}{
		{join.Equi{}, true},
		{join.NewBand(0), true},
		{join.NewBand(1), false},
		{join.NewBand(2), false},
		{join.Inequality{Op: join.Less}, false},
		{join.Inequality{Op: join.GreaterEq}, false},
		{join.Shifted{Inner: join.Equi{}, Scale: 2}, false},
	}
	for _, c := range cases {
		if got := EquiLike(c.cond); got != c.want {
			t.Errorf("EquiLike(%v) = %v, want %v", c.cond, got, c.want)
		}
		for _, r1 := range []bool{true, false} {
			if hash := NewResident(c.cond, r1).build != nil; hash != c.want {
				t.Errorf("NewResident(%v, %v) takes the hash form: %v, want %v", c.cond, r1, hash, c.want)
			}
		}
	}
}

// TestInsertChunkInvariance pins the incremental API's core contract: chunk
// boundaries must not affect the finished build. The same relation inserted
// whole, key-by-key, or in random splits produces identical probe counts.
func TestInsertChunkInvariance(t *testing.T) {
	r1 := dupHeavyKeys(700, 50)
	probe := dupHeavyKeys(500, 51)
	want := NestedLoopCount(r1, probe, join.Equi{})

	rng := stats.NewRNG(52)
	for trial := 0; trial < 10; trial++ {
		b := NewBuild()
		for lo := 0; lo < len(r1); {
			hi := lo + 1 + int(rng.Int64n(100))
			if hi > len(r1) {
				hi = len(r1)
			}
			b.Insert(r1[lo:hi])
			lo = hi
		}
		b.Seal()
		if got := b.ProbeCount(probe); got != want {
			t.Fatalf("trial %d: chunked ProbeCount = %d, want %d", trial, got, want)
		}
		if b.MemBytes() <= 0 {
			t.Fatalf("trial %d: MemBytes = %d, want > 0", trial, b.MemBytes())
		}
	}
}

// TestDenseWindowAtTheInt64Extremes grows a dense build towards each end of
// the int64 domain, so its slack wraps past the end: a key on the far side of
// the wrap must count zero, not alias a slot, until inserting one converts the
// build.
func TestDenseWindowAtTheInt64Extremes(t *testing.T) {
	for _, end := range []join.Key{math.MinInt64, math.MaxInt64} {
		step, far := join.Key(1), join.Key(math.MinInt64)
		if end == math.MinInt64 {
			step, far = -1, math.MaxInt64
		}
		b := NewBuild()
		want := map[join.Key]int64{}
		var first []join.Key
		for k := end - 40*step; k != end; k += step {
			first = append(first, k, k, k)
			want[k] = 3
		}
		b.Insert(first)
		b.Insert([]join.Key{end, end, end}) // extends the window by a quarter
		want[end] = 3
		if b.dense.off(far) >= uint64(len(b.dense.counts)) {
			t.Fatalf("towards %d: the window does not wrap past the end", end)
		}
		for _, k := range []join.Key{far, far + step, end, end - 40*step, end - 41*step} {
			if got := b.ProbeCount([]join.Key{k}); got != want[k] {
				t.Errorf("towards %d: dense ProbeCount(%d) = %d, want %d", end, k, got, want[k])
			}
		}
		if b.parts != nil {
			t.Fatalf("towards %d: the build left the dense form early", end)
		}
		b.Insert([]join.Key{far})
		want[far]++
		b.Seal()
		if b.parts == nil {
			t.Fatalf("towards %d: a key at the far end did not convert the build", end)
		}
		for k, w := range want {
			if got := b.ProbeCount([]join.Key{k}); got != w {
				t.Errorf("towards %d: sparse ProbeCount(%d) = %d, want %d", end, k, got, w)
			}
		}
	}
}

// buildRelations are the resident relations the prefix and shared-probe tests
// build: one that stays dense, one sparse from its first chunk, and one that
// converts halfway through.
func buildRelations(n int, seed uint64) []struct {
	name string
	keys []join.Key
} {
	return []struct {
		name string
		keys []join.Key
	}{
		{"dense", dupHeavyKeys(n, seed)},
		{"sparse", sparseKeys(n, seed+1)},
		{"converting", append(dupHeavyKeys(n/2, seed+2), sparseKeys(n-n/2, seed+3)...)},
	}
}

// probeKeys draws a probe relation that matches every buildRelations shape.
func probeKeys(n int, seed uint64) []join.Key {
	return append(dupHeavyKeys(n/2, seed), sparseKeys(n-n/2, seed+1)...)
}

// prefixCounts returns, for each c from 0 to the chunk count, the matches of
// probe with the first c chunks of r1.
func prefixCounts(r1, probe []join.Key, chunk int) []int64 {
	mult := make(map[join.Key]int64)
	for _, k := range probe {
		mult[k]++
	}
	out := []int64{0}
	for _, c := range chunked(r1, chunk) {
		sum := out[len(out)-1]
		for _, k := range c {
			sum += mult[k]
		}
		out = append(out, sum)
	}
	return out
}

// TestProbeBeforeSeal pins incremental probing: against a part-built build,
// ProbeCount must count exactly the inserted prefix's matches, chunk after
// chunk, whether the build is dense, sparse or converting between them.
func TestProbeBeforeSeal(t *testing.T) {
	probe := probeKeys(300, 54)
	for _, rel := range buildRelations(400, 53) {
		const chunk = 37
		prefix := prefixCounts(rel.keys, probe, chunk)
		b := NewBuild()
		for i, c := range chunked(rel.keys, chunk) {
			b.Insert(c)
			if got := b.ProbeCount(probe); got != prefix[i+1] {
				t.Fatalf("%s: ProbeCount after %d chunks = %d, want %d", rel.name, i+1, got, prefix[i+1])
			}
		}
		b.Seal()
		if got, want := b.ProbeCount(probe), NestedLoopCount(rel.keys, probe, join.Equi{}); got != want {
			t.Fatalf("%s: sealed ProbeCount = %d, want %d", rel.name, got, want)
		}
	}
}
