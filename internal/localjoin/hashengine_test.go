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

// TestFormOfFamily is the engine choice where it is made: FormOf of an empty
// side is the condition's family, and the pure-equality conditions, they
// alone, seal a dense side into the dense window.
func TestFormOfFamily(t *testing.T) {
	cases := []struct {
		cond join.Condition
		want Form
	}{
		{join.Equi{}, Dense},
		{join.NewBand(0), Dense},
		{join.NewBand(1), Table},
		{join.NewBand(2), Table},
		{join.Inequality{Op: join.Less}, Table},
		{join.Inequality{Op: join.GreaterEq}, Table},
		{successor{}, Merge},
	}
	keys := dupHeavyKeys(100, 49)
	for _, c := range cases {
		if got := FormOf(c.cond, 0, 0, 0); got != c.want {
			t.Errorf("FormOf(%v) of an empty side = %v, want %v", c.cond, got, c.want)
		}
		for _, r1 := range []bool{true, false} {
			if got := sealedForm(sealChunked(keys, c.cond, r1, 0)); got != c.want {
				t.Errorf("a dense side under %v, R1 resident %v, seals into the %v form, want %v", c.cond, r1, got, c.want)
			}
		}
	}
}

// successor is a condition from outside this library, R2.A = R1.A + 1: it
// takes the sorted block whatever its span.
type successor struct{}

func (successor) Matches(a, b join.Key) bool { return a != math.MaxInt64 && b == a+1 }
func (successor) String() string             { return "R2.A = R1.A + 1" }
func (successor) JoinableRange(a join.Key) (lo, hi join.Key) {
	if a == math.MaxInt64 {
		return 0, -1
	}
	return a + 1, a + 1
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

// TestDenseWindowAtTheInt64Extremes counts a dense window up to each end of
// the int64 domain: its keys count at both ends of the exact window, a key
// on the far side of the domain counts zero rather than alias a slot, and a
// side holding one as well seals into the sorted block.
func TestDenseWindowAtTheInt64Extremes(t *testing.T) {
	for _, end := range []join.Key{math.MinInt64, math.MaxInt64} {
		step, far := join.Key(1), join.Key(math.MinInt64)
		if end == math.MinInt64 {
			step, far = -1, math.MaxInt64
		}
		want := map[join.Key]int64{}
		var keys []join.Key
		for k := end - 40*step; ; k += step {
			keys = append(keys, k, k, k)
			want[k] = 3
			if k == end {
				break
			}
		}
		runs := [][]join.Key{keys}
		lo, hi, n := keyRange(runs)
		d := newDenseWindow(runs, lo, hi, n)
		if len(d.counts) != 41 {
			t.Fatalf("towards %d: the window has %d slots, want 41", end, len(d.counts))
		}
		for _, k := range []join.Key{far, far + step, end, end - 40*step, end - 41*step} {
			if got := d.probe([]join.Key{k}); got != want[k] {
				t.Errorf("towards %d: dense probe(%d) = %d, want %d", end, k, got, want[k])
			}
		}
		if got := sealedForm(sealChunked(keys, join.Equi{}, true, 3*20)); got != Dense {
			t.Fatalf("towards %d: a side of the window's keys sealed into the %s form, want dense", end, got)
		}
		keys = append(keys, far)
		want[far]++
		side := sealChunked(keys, join.Equi{}, true, 3*41)
		if got := sealedForm(side); got != Merge {
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
// and one whose first half alone is dense and whose whole is not.
func buildRelations(n int, seed uint64) []struct {
	name string
	keys []join.Key
	form Form
} {
	return []struct {
		name string
		keys []join.Key
		form Form
	}{
		{"dense", dupHeavyKeys(n, seed), Dense},
		{"past the budget", sparseKeys(n, seed+1), Merge},
		{"crossing", append(dupHeavyKeys(n/2, seed+2), sparseKeys(n-n/2, seed+3)...), Merge},
	}
}

// probeKeys draws a probe relation that matches every buildRelations shape.
func probeKeys(n int, seed uint64) []join.Key {
	return append(dupHeavyKeys(n/2, seed), sparseKeys(n-n/2, seed+1)...)
}

// TestBuildCountsAcrossTheBudget drives the exported Build over each
// buildRelations shape in chunks: it seals into the form the shape's whole
// span takes, and counts exactly in either form.
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
