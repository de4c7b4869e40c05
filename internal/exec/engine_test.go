package exec

import (
	"fmt"
	"testing"

	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
)

func TestParseJoinEngine(t *testing.T) {
	for s, want := range map[string]JoinEngine{
		"": EngineAuto, "auto": EngineAuto, "merge": EngineMerge, "hash": EngineHash,
	} {
		got, err := ParseJoinEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseJoinEngine(%q) = %v, %v; want %v", s, got, err, want)
		}
		if got.String() == "" {
			t.Errorf("%v: empty String()", got)
		}
	}
	if _, err := ParseJoinEngine("nested-loop"); err == nil {
		t.Error("unknown engine parsed without error")
	}
}

func TestForCondResolution(t *testing.T) {
	equi, band := join.Equi{}, join.NewBand(3)
	cases := []struct {
		e    JoinEngine
		cond join.Condition
		want JoinEngine
	}{
		{EngineAuto, equi, EngineHash},
		{EngineAuto, join.NewBand(0), EngineHash},
		{EngineAuto, band, EngineMerge},
		{EngineHash, equi, EngineHash},
		{EngineHash, band, EngineMerge}, // hash cannot serve a window: falls back
		{EngineMerge, equi, EngineMerge},
		{EngineMerge, band, EngineMerge},
	}
	for _, c := range cases {
		if got := c.e.ForCond(c.cond); got != c.want {
			t.Errorf("%v.ForCond(%v) = %v, want %v", c.e, c.cond, got, c.want)
		}
	}
}

func TestCountOwnedEnginesAgree(t *testing.T) {
	if CountOwned(EngineAuto, nil, []join.Key{1}, join.Equi{}) != 0 ||
		CountOwned(EngineAuto, []join.Key{1}, nil, join.NewBand(1)) != 0 {
		t.Error("an empty side must count 0")
	}
	for _, cond := range []join.Condition{join.Equi{}, join.NewBand(0), join.NewBand(2), join.NewBand(4),
		join.Inequality{Op: join.Less}, join.Inequality{Op: join.GreaterEq}} {
		r1 := zipfKeys(2000, 300, 0.8, 100)
		r2 := zipfKeys(1500, 300, 0.8, 101)
		want := localjoin.NestedLoopCount(r1, r2, cond)
		for _, e := range []JoinEngine{EngineAuto, EngineMerge, EngineHash} {
			// CountOwned may sort in place: give each engine its own copies.
			c1 := append([]join.Key(nil), r1...)
			c2 := append([]join.Key(nil), r2...)
			if got := CountOwned(e, c1, c2, cond); got != want {
				t.Errorf("%v / %v: CountOwned = %d, want %d", e, cond, got, want)
			}
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

// TestJoinPairsEngineBitIdentical pins the tentpole ordering contract: the
// hash engine's pair stream — order, content, count, and even flush chunk
// boundaries — is byte-for-byte the merge argsort path's.
func TestJoinPairsEngineBitIdentical(t *testing.T) {
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
				return JoinPairsEngine(EngineHash, sh.r1, sh.r2, cond, f)
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

// TestRunEngineSelection crosschecks the full Local pipeline under every
// engine selection: identical exact counts for equi (where hash actually
// runs, including the chunk-streamed insert-while-probe path that an
// explicit EngineHash enables on Local) and band (where hash falls back).
func TestRunEngineSelection(t *testing.T) {
	r1 := zipfKeys(20000, 5000, 0.9, 120)
	r2 := zipfKeys(20000, 5000, 0.9, 121)
	for _, cond := range []join.Condition{join.Equi{}, join.NewBand(0), join.NewBand(2)} {
		want := localjoin.NestedLoopCount(r1, r2, cond)
		for _, j := range []int{1, 4, 7} {
			scheme := partition.NewCI(j)
			for _, e := range []JoinEngine{EngineAuto, EngineMerge, EngineHash} {
				res := Run(r1, r2, cond, scheme, model, Config{Seed: 13, Engine: e, Mappers: 6})
				if res.Output != want {
					t.Errorf("%v / J=%d / %v: output %d, want %d", cond, j, e, res.Output, want)
				}
			}
		}
	}
}

// TestLocalStreamsChunksGate pins when Local consumes the chunked scatter:
// a count-only job that resolves to the hash engine, however it was selected
// — auto and an explicit hash request take the same path; pairs, band and an
// explicit merge keep the flat one.
func TestLocalStreamsChunksGate(t *testing.T) {
	mk := func(e JoinEngine, cond join.Condition, pairs bool) *Job {
		j := &Job{Cond: cond, Workers: 2, Engine: e}
		if pairs {
			j.Pairs = func(int, []PairIdx) {}
		}
		return j
	}
	cases := []struct {
		job  *Job
		want bool
	}{
		{mk(EngineHash, join.Equi{}, false), true},
		{mk(EngineHash, join.NewBand(0), false), true},
		{mk(EngineHash, join.NewBand(2), false), false},
		{mk(EngineHash, join.Equi{}, true), false},
		{mk(EngineAuto, join.Equi{}, false), true},
		{mk(EngineAuto, join.NewBand(0), false), true},
		{mk(EngineAuto, join.NewBand(2), false), false},
		{mk(EngineAuto, join.Equi{}, true), false},
		{mk(EngineMerge, join.Equi{}, false), false},
	}
	for _, c := range cases {
		if got := streamsChunksFor(Local{}, c.job); got != c.want {
			t.Errorf("engine %v cond %v pairs %v: streams = %v, want %v",
				c.job.Engine, c.job.Cond, c.job.Pairs != nil, got, c.want)
		}
	}
}
