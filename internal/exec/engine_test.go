package exec

import (
	"fmt"
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

// collectPairs gathers a pair stream with its flush-chunk boundaries, which
// the bit-identity contract covers too (same pairChunk granularity).
func collectPairs(run func(flush func([]PairIdx)) int64) (pairs []PairIdx, cuts []int, n int64) {
	n = run(func(chunk []PairIdx) {
		pairs = append(pairs, chunk...)
		cuts = append(cuts, len(pairs))
	})
	return
}

// TestJoinPairsBitIdentical pins the ordering contract: the pair stream
// JoinPairs emits through the hash engine for an equality condition — order,
// content, count, and even flush chunk boundaries — is byte-for-byte the
// merge argsort path's.
func TestJoinPairsBitIdentical(t *testing.T) {
	shapes := []struct {
		name   string
		r1, r2 []join.Key
	}{
		{"uniform", randKeys(3000, 500, 110), randKeys(2500, 500, 111)},
		{"dup-heavy", randKeys(4000, 40, 112), randKeys(3000, 40, 113)},
		{"zipf", zipfKeys(3000, 1000, 1.0, 114), zipfKeys(3000, 1000, 1.0, 115)},
		{"all-equal", make([]join.Key, 300), make([]join.Key, 250)},
		{"empty", nil, randKeys(10, 5, 116)},
	}
	for _, sh := range shapes {
		for _, cond := range []join.Condition{join.Equi{}, join.NewBand(0)} {
			wantPairs, wantCuts, wantN := collectPairs(func(f func([]PairIdx)) int64 {
				return mergeJoinPairs(sh.r1, sh.r2, cond, f)
			})
			gotPairs, gotCuts, gotN := collectPairs(func(f func([]PairIdx)) int64 {
				return JoinPairs(sh.r1, sh.r2, cond, f)
			})
			if gotN != wantN || len(gotPairs) != len(wantPairs) {
				t.Fatalf("%s/%v: hash stream %d pairs (n=%d), merge %d (n=%d)",
					sh.name, cond, len(gotPairs), gotN, len(wantPairs), wantN)
			}
			for i := range wantPairs {
				if gotPairs[i] != wantPairs[i] {
					t.Fatalf("%s/%v: pair %d = %v, want %v", sh.name, cond, i, gotPairs[i], wantPairs[i])
				}
			}
			if fmt.Sprint(gotCuts) != fmt.Sprint(wantCuts) {
				t.Fatalf("%s/%v: flush boundaries %v, want %v", sh.name, cond, gotCuts, wantCuts)
			}
		}
	}
}

// TestRunEngineSelection crosschecks the full Local pipeline under the engine
// each condition selects: equi and band 0 on the hash engine through the
// chunk-streamed insert-while-probe path, band 2 on the merge engine.
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
