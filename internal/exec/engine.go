package exec

import (
	"fmt"

	"ewh/internal/join"
	"ewh/internal/localjoin"
)

// JoinEngine selects the local-join engine workers run over their shuffled
// blocks. The engines are count- and pair-identical by construction (the
// crosscheck suites pin it), so the choice is purely a performance knob —
// and EngineAuto picks per condition: the partitioned hash engine for
// pure-equality predicates, the merge sweep for everything with a joinable
// window.
type JoinEngine int

const (
	// EngineAuto picks per condition: hash for EquiLike, merge otherwise.
	EngineAuto JoinEngine = iota
	// EngineMerge forces the sort + merge-sweep engine for every condition.
	EngineMerge
	// EngineHash requests the partitioned radix-hash engine; conditions it
	// cannot serve (band/inequality windows span hash partitions) fall back
	// to merge rather than failing — the selection is a hint, not a schema.
	EngineHash
)

// String implements fmt.Stringer with the -join-engine flag vocabulary.
func (e JoinEngine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineMerge:
		return "merge"
	case EngineHash:
		return "hash"
	}
	return fmt.Sprintf("JoinEngine(%d)", int(e))
}

// ParseJoinEngine parses the -join-engine flag vocabulary (auto|merge|hash).
func ParseJoinEngine(s string) (JoinEngine, error) {
	switch s {
	case "auto", "":
		return EngineAuto, nil
	case "merge":
		return EngineMerge, nil
	case "hash":
		return EngineHash, nil
	}
	return EngineAuto, fmt.Errorf("exec: unknown join engine %q (auto|merge|hash)", s)
}

// ForCond resolves the engine that actually runs for cond: EngineHash or
// EngineMerge, never EngineAuto. The hash engine serves only pure-equality
// conditions; every other request resolves to merge.
func (e JoinEngine) ForCond(cond join.Condition) JoinEngine {
	if e != EngineMerge && localjoin.EquiLike(cond) {
		return EngineHash
	}
	return EngineMerge
}

// Resident returns the empty resident side (R1's if r1) of a count join under
// this selection: hash form or merge form, which no count path asks again.
func (e JoinEngine) Resident(cond join.Condition, r1 bool) *localjoin.Resident {
	return localjoin.NewResident(cond, e.ForCond(cond) == EngineHash, r1)
}

// CountOwned runs a count-only join under the selected engine over blocks
// the caller owns outright: the merge engine sorts r2 IN PLACE, the hash
// engine builds over r1 and probes r2 without mutating either. Shared by the
// in-process workers and the session workers' flat count jobs; chunked and
// peer-fed jobs hold the same resident side on their feed goroutine.
func CountOwned(e JoinEngine, r1, r2 []join.Key, cond join.Condition) int64 {
	res := e.Resident(cond, true)
	res.Insert(r1)
	res.Seal()
	n, _ := res.ProbeCount(r2, false)
	return n
}

// JoinPairsEngine is mergeJoinPairs under an engine selection: identical pair
// stream (R1 arrival order, partners ascending by key then arrival index),
// identical return count, different index structure. The hash path serves
// resolved-hash jobs via the deterministic PairTable ordering layer; all
// other selections run the merge argsort path.
func JoinPairsEngine(e JoinEngine, r1, r2 []join.Key, cond join.Condition,
	flush func([]PairIdx)) int64 {

	if e.ForCond(cond) == EngineHash {
		return hashJoinPairs(r1, r2, flush)
	}
	return mergeJoinPairs(r1, r2, cond, flush)
}

// hashJoinPairs emits the equi-join pair stream through a PairTable over
// R2. For a pure-equality condition every partner of an R1 tuple shares its
// key, so mergeJoinPairs' "(key, arrival index) ascending" partner order is the
// table group's arrival-ascending index list — bit-identical streams, no
// sort. Flush chunking matches mergeJoinPairs (pairChunk cap, pooled buffer).
func hashJoinPairs(r1, r2 []join.Key, flush func([]PairIdx)) int64 {
	if len(r1) == 0 || len(r2) == 0 {
		return 0
	}
	t := localjoin.NewPairTable(r2)
	buf := getPairBuf()
	var out int64
	for i1, k := range r1 {
		for _, i2 := range t.Partners(k) {
			buf = append(buf, PairIdx{I1: uint32(i1), I2: i2})
			out++
			if len(buf) == pairChunk {
				flush(buf)
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		flush(buf)
	}
	putPairBuf(buf)
	return out
}
