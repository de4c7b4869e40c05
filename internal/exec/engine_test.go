package exec

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
)

// TestForCondResolution pins the shim kept for the benchmark: whatever the
// receiver, ForCond reports the family localjoin runs the condition in.
func TestForCondResolution(t *testing.T) {
	for cond, want := range map[join.Condition]JoinEngine{
		join.Equi{}: EngineHash, join.NewBand(0): EngineHash,
		join.NewBand(3): EngineMerge, join.Inequality{Op: join.Less}: EngineMerge,
	} {
		for _, e := range []JoinEngine{0, EngineMerge, EngineHash} {
			if got := e.ForCond(cond); got != want {
				t.Errorf("%d.ForCond(%v) = %d, want %d", e, cond, got, want)
			}
		}
	}
}

func TestCountOwnedEnginesAgree(t *testing.T) {
	if CountOwned(0, nil, []join.Key{1}, join.Equi{}) != 0 ||
		CountOwned(0, []join.Key{1}, nil, join.NewBand(1)) != 0 {
		t.Error("an empty side must count 0")
	}
	for _, cond := range []join.Condition{join.Equi{}, join.NewBand(0), join.NewBand(2), join.NewBand(4),
		join.Inequality{Op: join.Less}, join.Inequality{Op: join.GreaterEq}} {
		r1 := zipfKeys(2000, 300, 0.8, 100)
		r2 := zipfKeys(1500, 300, 0.8, 101)
		if got, want := CountOwned(0, r1, r2, cond), localjoin.NestedLoopCount(r1, r2, cond); got != want {
			t.Errorf("%v: CountOwned = %d, want %d", cond, got, want)
		}
	}
}

// nestedLoopPairs is JoinPairs' ordering contract written without the
// engine: every matching (R1 index, R2 index), R1 indices ascending, each
// tuple's partners ascending by (R2 key, R2 index), cut every pairChunk pairs.
func nestedLoopPairs(r1, r2 []join.Key, cond join.Condition) (pairs []PairIdx, cuts []int) {
	for i1, a := range r1 {
		var partners []uint32
		for i2, b := range r2 {
			if cond.Matches(a, b) {
				partners = append(partners, uint32(i2))
			}
		}
		slices.SortStableFunc(partners, func(x, y uint32) int { return cmp.Compare(r2[x], r2[y]) })
		for _, i2 := range partners {
			pairs = append(pairs, PairIdx{I1: uint32(i1), I2: i2})
		}
	}
	for c := pairChunk; c < len(pairs); c += pairChunk {
		cuts = append(cuts, c)
	}
	if len(pairs) > 0 {
		cuts = append(cuts, len(pairs))
	}
	return pairs, cuts
}

// pairStream runs joinPairs in one form and returns the pairs it streamed,
// its flush boundaries and its count.
func pairStream(r1, r2 []join.Key, cond join.Condition, form pairForm) (pairs []PairIdx, cuts []int, n int64) {
	n = joinPairs(r1, r2, cond, form, func(chunk []PairIdx) {
		pairs = append(pairs, chunk...)
		cuts = append(cuts, len(pairs))
	})
	return pairs, cuts, n
}

// TestJoinPairsMatchesNestedLoop pins the pair stream's ordering contract
// against a nested-loop oracle — content, order, count and flush boundaries —
// in both forms of relation 2, for equality, zero- and two-wide bands and
// every inequality, over blocks on both sides of the table's budget and its
// 2-byte slots, and keys at the int64 extremes. Relation 2 takes the table
// exactly where FormOf's table budget holds and no key range overflows.
func TestJoinPairsMatchesNestedLoop(t *testing.T) {
	// spread is n keys from 0 to span, both ends included.
	spread := func(n int, span int64) []join.Key {
		out := make([]join.Key, n)
		for i := range out {
			out[i] = span * int64(i) / int64(n-1)
		}
		return out
	}
	// extremes are R1 keys whose joinable ranges saturate at the int64 ends,
	// or would wrap there, beside some in the middle of the domain.
	extremes := []join.Key{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2, math.MinInt64/4 - 1, math.MinInt64 / 4,
		-1, 0, 1, 7, math.MaxInt64 / 4, math.MaxInt64/4 + 1, math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64}
	// near is R2 keys within 40 of k, counted from k towards zero.
	near := func(k join.Key, seed uint64) []join.Key {
		out := randKeys(300, 40, seed)
		for i, d := range out {
			if k < 0 {
				out[i] = k + d
			} else {
				out[i] = k - d
			}
		}
		return out
	}
	all := []join.Condition{join.Equi{}, join.NewBand(0), join.NewBand(2),
		join.Inequality{Op: join.Less}, join.Inequality{Op: join.LessEq},
		join.Inequality{Op: join.Greater}, join.Inequality{Op: join.GreaterEq}}
	shapes := []struct {
		name   string
		r1, r2 []join.Key
		conds  []join.Condition
		// ranges: no key range of relation 2 overflows a table's 2-byte slots.
		ranges bool
	}{
		{"uniform", randKeys(1500, 500, 110), randKeys(1200, 500, 111), all, true},
		{"dup-heavy", randKeys(2000, 40, 112), randKeys(1500, 40, 113), all, true},
		{"all-equal", make([]join.Key, 300), make([]join.Key, 250), all, true},
		{"empty", nil, randKeys(10, 5, 116), all, true},
		{"sparse: 64 slots per key", randKeys(1000, 64_000, 117), randKeys(1000, 64_000, 118), all, true},
		{"span 16n - 1", randKeys(1200, 16_000, 119), spread(1000, 15_999), all, true},
		{"span 16n", randKeys(1200, 16_001, 123), spread(1000, 16_000), all, true},
		{"2^16 equal keys", []join.Key{6, 7, 8, 9}, slices.Repeat([]join.Key{7}, 1<<16), all, false},
		{"int64 extremes", extremes, randKeys(300, 40, 120), all, true},
		{"int64 top", extremes, near(math.MaxInt64, 121), all, true},
		{"int64 bottom", extremes, near(math.MinInt64, 122), all, true},
	}
	for _, sh := range shapes {
		// A band's form is the table budget's verdict on relation 2.
		budget := localjoin.FormOf(join.NewBand(1), slices.Min(sh.r2), slices.Max(sh.r2), len(sh.r2)) == localjoin.Table
		for anySpan, want := range map[bool]bool{false: budget && sh.ranges, true: sh.ranges} {
			ro := localjoin.NewRankOrder(sh.r2, anySpan)
			if (ro != nil) != want {
				t.Errorf("%s: a table for relation 2 (forced %v) %v, want %v", sh.name, anySpan, ro != nil, want)
			}
			if ro != nil {
				ro.Release()
			}
		}
		for _, cond := range sh.conds {
			refPairs, refCuts := nestedLoopPairs(sh.r1, sh.r2, cond)
			for _, form := range []pairForm{pairTable, pairArgsort} {
				gotPairs, gotCuts, n := pairStream(sh.r1, sh.r2, cond, form)
				if n != int64(len(refPairs)) || !slices.Equal(gotPairs, refPairs) {
					t.Fatalf("%s/%v, form %d: streamed %d pairs (n=%d), the nested loop %d in another order",
						sh.name, cond, form, len(gotPairs), n, len(refPairs))
				}
				if !slices.Equal(gotCuts, refCuts) {
					t.Fatalf("%s/%v, form %d: flush boundaries %v, want %v", sh.name, cond, form, gotCuts, refCuts)
				}
			}
		}
	}
}

// FuzzJoinPairs cross-checks the table forms of relation 2 against the
// argsort form on fuzz-chosen keys, condition and block sizes: the pair
// stream, its flush boundaries and the count must be identical. Each byte is
// a key step, scaled by a fuzz-chosen spacing from a fuzz-chosen origin, so
// blocks fall on both sides of the span rule and reach the int64 ends;
// repeating a block makes it long enough to cross flush boundaries.
func FuzzJoinPairs(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{1, 2, 3}, int64(0), uint8(1), uint8(2), uint8(0))
	f.Add([]byte{0, 0, 0}, []byte{0, 0, 0, 0}, int64(0), uint8(0), uint8(200), uint8(3))
	f.Add([]byte{255, 128, 0}, []byte{255, 254, 0}, int64(math.MaxInt64-255), uint8(1), uint8(90), uint8(2))
	f.Add([]byte{0, 1, 255}, []byte{0, 2, 9}, int64(math.MinInt64), uint8(1), uint8(7), uint8(5))
	f.Add([]byte{3, 200, 17}, []byte{9, 60, 250, 31}, int64(-500), uint8(40), uint8(5), uint8(6))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), []byte("05az"), int64(0), uint8(1), uint8(255), uint8(3))
	// Relation 2 at the table's budget edge: two keys 31 apart take the table
	// (span 16n - 1), 32 apart the argsort (span 16n).
	f.Add([]byte{0, 1, 2}, []byte{0, 1}, int64(-40), uint8(31), uint8(0), uint8(2))
	f.Add([]byte{0, 1, 2}, []byte{0, 1}, int64(-40), uint8(32), uint8(0), uint8(5))
	conds := []join.Condition{join.Equi{}, join.NewBand(0), join.NewBand(2),
		join.Inequality{Op: join.Less}, join.Inequality{Op: join.LessEq},
		join.Inequality{Op: join.Greater}, join.Inequality{Op: join.GreaterEq}}
	f.Fuzz(func(t *testing.T, b1, b2 []byte, origin int64, spacing, repeat, sel uint8) {
		if len(b1) > 512 || len(b2) > 512 {
			t.Skip()
		}
		// Keys wrap past the int64 ends as the scaled steps do.
		mk := func(bs []byte, rep int) []join.Key {
			out := make([]join.Key, 0, len(bs)*rep)
			for range rep {
				for _, v := range bs {
					out = append(out, origin+int64(v)*int64(spacing))
				}
			}
			return out
		}
		r1, r2 := mk(b1, 1), mk(b2, 1+int(repeat))
		if len(r1)*len(r2) > 1<<20 {
			t.Skip() // at most 8 MiB of pairs a form
		}
		cond := conds[int(sel)%len(conds)]
		want, wantCuts, wantN := pairStream(r1, r2, cond, pairArgsort)
		forms := []pairForm{pairRanked}
		// The forced table is allocated for the span, so only a narrow one is
		// forced; the rule refuses a wide one in the ranked form.
		if len(r2) > 0 && uint64(slices.Max(r2))-uint64(slices.Min(r2)) <= 1<<16 {
			forms = append(forms, pairTable)
		}
		for _, form := range forms {
			got, cuts, n := pairStream(r1, r2, cond, form)
			if n != wantN || !slices.Equal(got, want) || !slices.Equal(cuts, wantCuts) {
				t.Fatalf("%v, form %d: streamed %d pairs cut at %v, the argsort form %d cut at %v",
					cond, form, n, cuts, wantN, wantCuts)
			}
		}
	})
}

// TestRunEngineSelection crosschecks the full Local pipeline, every job on
// the flat scatter, under the form each condition and span select: equi and
// band 0 seal into the dense window, and over keys 64 slots apart into the
// sorted block; band 2 into the rank table.
func TestRunEngineSelection(t *testing.T) {
	dense1, dense2 := zipfKeys(20000, 5000, 0.9, 120), zipfKeys(20000, 5000, 0.9, 121)
	wide1, wide2 := randKeys(4000, 64*4000, 122), randKeys(4000, 64*4000, 123)
	for _, c := range []struct {
		cond   join.Condition
		r1, r2 []join.Key
	}{
		{join.Equi{}, dense1, dense2},
		{join.NewBand(0), dense1, dense2},
		{join.NewBand(2), dense1, dense2},
		{join.Equi{}, wide1, wide2},
	} {
		want := localjoin.NestedLoopCount(c.r1, c.r2, c.cond)
		for _, j := range []int{1, 4, 7} {
			res := Run(c.r1, c.r2, c.cond, partition.NewCI(j), model, Config{Seed: 13, Mappers: 6})
			if res.Output != want {
				t.Errorf("%v over %d keys / J=%d: output %d, want %d", c.cond, len(c.r1), j, res.Output, want)
			}
		}
	}
}
