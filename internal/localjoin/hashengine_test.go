package localjoin

import (
	"math"
	"slices"
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
// dense window takes. The values come from one fixed stream, so relations of
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
// sort's sign-biased digits.
func signedKeys(n int, seed uint64) []join.Key {
	r := stats.NewRNG(seed)
	out := make([]join.Key, n)
	for i := range out {
		out[i] = r.Int64n(200) - 100
	}
	return out
}

// TestEquiLike is the engine choice where it is made: the pure-equality
// conditions, and they alone, start a resident side in the dense window.
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
	}
	for _, c := range cases {
		if got := EquiLike(c.cond); got != c.want {
			t.Errorf("EquiLike(%v) = %v, want %v", c.cond, got, c.want)
		}
		for _, r1 := range []bool{true, false} {
			if dense := NewResident(c.cond, r1, nil, nil).dense != nil; dense != c.want {
				t.Errorf("NewResident(%v, %v) starts in the dense window: %v, want %v", c.cond, r1, dense, c.want)
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
		if d := b.side.dense; d == nil || d.MemBytes() <= 0 {
			t.Fatalf("trial %d: the build did not seal into a dense window of some bytes", trial)
		}
	}
}

// TestDenseWindowAtTheInt64Extremes grows a dense window towards each end of
// the int64 domain, so its slack wraps past the end: a key on the far side of
// the wrap must count zero, not alias a slot, and counting one in must be
// refused, which seals a side of all the keys into the sorted block.
func TestDenseWindowAtTheInt64Extremes(t *testing.T) {
	for _, end := range []join.Key{math.MinInt64, math.MaxInt64} {
		step, far := join.Key(1), join.Key(math.MinInt64)
		if end == math.MinInt64 {
			step, far = -1, math.MaxInt64
		}
		d := new(denseWindow)
		want := map[join.Key]int64{}
		var keys []join.Key
		for k := end - 40*step; k != end; k += step {
			keys = append(keys, k, k, k)
			want[k] = 3
		}
		if !d.add(slices.Clone(keys)) || !d.add([]join.Key{end, end, end}) { // extends the window by a quarter
			t.Fatalf("towards %d: the window refused keys within its budget", end)
		}
		keys = append(keys, end, end, end)
		want[end] = 3
		if d.off(far) >= uint64(len(d.counts)) {
			t.Fatalf("towards %d: the window does not wrap past the end", end)
		}
		for _, k := range []join.Key{far, far + step, end, end - 40*step, end - 41*step} {
			if got := d.probe([]join.Key{k}); got != want[k] {
				t.Errorf("towards %d: dense probe(%d) = %d, want %d", end, k, got, want[k])
			}
		}
		if d.add([]join.Key{far}) {
			t.Fatalf("towards %d: the window counted a key at the far end", end)
		}
		keys = append(keys, far)
		want[far]++
		side := sealChunked(keys, join.Equi{}, true, 3*41)
		if got := sealedForm(side); got != "merge" {
			t.Fatalf("towards %d: a side with a key at the far end sealed into the %s form, want merge", end, got)
		}
		for k, w := range want {
			if got := side.Finish([]join.Key{k}); got != w {
				t.Errorf("towards %d: merge Finish(%d) = %d, want %d", end, k, got, w)
			}
		}
	}
}

// buildRelations are the resident relations the build and shared-probe tests
// seal: one that stays dense, one past the dense budget from its first chunk,
// and one that crosses it halfway through, after its first chunks counted in.
func buildRelations(n int, seed uint64) []struct {
	name string
	keys []join.Key
	form string
} {
	return []struct {
		name string
		keys []join.Key
		form string
	}{
		{"dense", dupHeavyKeys(n, seed), "dense"},
		{"past the budget", sparseKeys(n, seed+1), "merge"},
		{"crossing", append(dupHeavyKeys(n/2, seed+2), sparseKeys(n-n/2, seed+3)...), "merge"},
	}
}

// probeKeys draws a probe relation that matches every buildRelations shape.
func probeKeys(n int, seed uint64) []join.Key {
	return append(dupHeavyKeys(n/2, seed), sparseKeys(n-n/2, seed+1)...)
}

// TestBuildCountsAcrossTheBudget drives the exported Build over each
// buildRelations shape in chunks: it seals into the form the shape's span
// takes, and counts exactly whether its chunks all counted into the dense
// window, none did, or the first ones did before a chunk overflowed it.
func TestBuildCountsAcrossTheBudget(t *testing.T) {
	probe := probeKeys(300, 54)
	for _, rel := range buildRelations(400, 53) {
		b := NewBuild()
		for _, c := range chunked(slices.Clone(rel.keys), 37) {
			b.Insert(c)
		}
		b.Seal()
		if got := sealedForm(b.side); got != rel.form {
			t.Errorf("%s: sealed into the %s form, want %s", rel.name, got, rel.form)
		}
		if got, want := b.ProbeCount(slices.Clone(probe)), NestedLoopCount(rel.keys, probe, join.Equi{}); got != want {
			t.Errorf("%s: ProbeCount = %d, want %d", rel.name, got, want)
		}
	}
}
