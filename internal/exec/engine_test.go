package exec

import (
	"cmp"
	"slices"
	"testing"

	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
)

// TestForCondResolution pins the shim kept for the benchmark: whatever the
// receiver, ForCond reports the engine localjoin picks for the condition.
func TestForCondResolution(t *testing.T) {
	for _, cond := range []join.Condition{join.Equi{}, join.NewBand(0), join.NewBand(3)} {
		want := EngineMerge
		if localjoin.EquiLike(cond) {
			want = EngineHash
		}
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

// TestJoinPairsMatchesNestedLoop pins the pair stream's ordering contract
// against a nested-loop oracle: content, order, count and flush boundaries,
// for equality, zero- and two-wide bands and an inequality.
func TestJoinPairsMatchesNestedLoop(t *testing.T) {
	shapes := []struct {
		name   string
		r1, r2 []join.Key
	}{
		{"uniform", randKeys(1500, 500, 110), randKeys(1200, 500, 111)},
		{"dup-heavy", randKeys(2000, 40, 112), randKeys(1500, 40, 113)},
		{"all-equal", make([]join.Key, 300), make([]join.Key, 250)},
		{"empty", nil, randKeys(10, 5, 116)},
	}
	for _, sh := range shapes {
		for _, cond := range []join.Condition{join.Equi{}, join.NewBand(0), join.NewBand(2),
			join.Inequality{Op: join.Less}} {
			refPairs, refCuts := nestedLoopPairs(sh.r1, sh.r2, cond)
			var gotPairs []PairIdx
			var gotCuts []int
			n := JoinPairs(sh.r1, sh.r2, cond, func(chunk []PairIdx) {
				gotPairs = append(gotPairs, chunk...)
				gotCuts = append(gotCuts, len(gotPairs))
			})
			if n != int64(len(refPairs)) || !slices.Equal(gotPairs, refPairs) {
				t.Fatalf("%s/%v: JoinPairs streamed %d pairs (n=%d), the nested loop %d in another order",
					sh.name, cond, len(gotPairs), n, len(refPairs))
			}
			if !slices.Equal(gotCuts, refCuts) {
				t.Fatalf("%s/%v: flush boundaries %v, want %v", sh.name, cond, gotCuts, refCuts)
			}
		}
	}
}

// TestRunEngineSelection crosschecks the full Local pipeline under the engine
// each condition selects: equi and band 0 on the hash engine through the
// chunk-streamed path (each chunk inserted as it lands, the probe side after
// the seal), band 2 on the merge engine.
func TestRunEngineSelection(t *testing.T) {
	r1 := zipfKeys(20000, 5000, 0.9, 120)
	r2 := zipfKeys(20000, 5000, 0.9, 121)
	for _, cond := range []join.Condition{join.Equi{}, join.NewBand(0), join.NewBand(2)} {
		want := localjoin.NestedLoopCount(r1, r2, cond)
		for _, j := range []int{1, 4, 7} {
			res := Run(r1, r2, cond, partition.NewCI(j), model, Config{Seed: 13, Mappers: 6})
			if res.Output != want {
				t.Errorf("%v / J=%d: output %d, want %d", cond, j, res.Output, want)
			}
		}
	}
}

// TestLocalStreamsChunksGate pins when Local consumes the chunked scatter: a
// count-only job whose condition takes the hash engine; pairs and windowed
// conditions keep the flat one.
func TestLocalStreamsChunksGate(t *testing.T) {
	cases := []struct {
		cond  join.Condition
		pairs bool
		want  bool
	}{
		{join.Equi{}, false, true},
		{join.NewBand(0), false, true},
		{join.NewBand(2), false, false},
		{join.Equi{}, true, false},
	}
	for _, c := range cases {
		job := &Job{Cond: c.cond, Workers: 2}
		if c.pairs {
			job.Pairs = func(int, []PairIdx) {}
		}
		if got := streamsChunksFor(Local{}, job); got != c.want {
			t.Errorf("cond %v pairs %v: streams = %v, want %v", c.cond, c.pairs, got, c.want)
		}
	}
}
