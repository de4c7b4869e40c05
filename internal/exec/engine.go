package exec

import (
	"ewh/internal/join"
	"ewh/internal/localjoin"
)

// JoinEngine names the two forms of the local join. Nothing in this module
// selects one: localjoin picks the form from the condition (hash exactly when
// localjoin.EquiLike). The type, its two values, ForCond, Config.Engine and
// CountOwned's first parameter are kept only because the benchmark module
// compiles against them.
type JoinEngine int

const (
	// EngineMerge is the sort + merge-sweep form.
	EngineMerge JoinEngine = iota + 1
	// EngineHash is the partitioned radix-hash form.
	EngineHash
)

// ForCond reports the form localjoin runs for cond, whatever the receiver.
func (JoinEngine) ForCond(cond join.Condition) JoinEngine {
	if localjoin.EquiLike(cond) {
		return EngineHash
	}
	return EngineMerge
}

// CountOwned runs a count-only join over blocks the caller owns outright: the
// merge form sorts r2 IN PLACE, the hash form builds over r1 and probes r2
// without mutating either. Shared by the in-process workers and the session
// workers' flat count jobs; chunked and peer-fed jobs hold the same resident
// side on their feed goroutine. The JoinEngine parameter is ignored.
func CountOwned(_ JoinEngine, r1, r2 []join.Key, cond join.Condition) int64 {
	res := localjoin.NewResident(cond, true)
	res.Insert(r1)
	res.Seal()
	n, _ := res.ProbeCount(r2, false)
	return n
}

// JoinPairs streams the matched index pairs of r1 ⋈ r2 (R1 arrival order,
// partners ascending by key then arrival index), calling flush with
// successive chunks, and returns the match count. A pure-equality condition
// runs through the deterministic PairTable ordering layer, every other one
// through the merge argsort; the two emit identical streams. Neither input is
// mutated.
func JoinPairs(r1, r2 []join.Key, cond join.Condition, flush func([]PairIdx)) int64 {
	if localjoin.EquiLike(cond) {
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
