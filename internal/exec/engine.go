package exec

import (
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/stage"
)

// JoinEngine names the two forms of the local join. Nothing in this module
// selects one: localjoin picks the form from the condition (hash exactly when
// localjoin.EquiLike) and the resident side's span. The type, its two values,
// ForCond, Config.Engine and CountOwned's first parameter are kept only
// because the benchmark module compiles against them.
type JoinEngine int

const (
	// EngineMerge is the ordered form: rank table or sort + merge sweep.
	EngineMerge JoinEngine = iota + 1
	// EngineHash is the dense count window, or the sorted block past its
	// budget.
	EngineHash
)

// ForCond reports the form localjoin runs for cond, whatever the receiver.
func (JoinEngine) ForCond(cond join.Condition) JoinEngine {
	if localjoin.EquiLike(cond) {
		return EngineHash
	}
	return EngineMerge
}

// CountOwned runs a count-only join over blocks the caller owns outright,
// with r1 resident. The dense window and the table form count r1 into their
// index and probe r2 without mutating either; the merge form (a block too wide
// for either, or a condition from outside localjoin) sorts r2 IN PLACE. Its
// one caller in this module is exec.Local's flat count job (a merge
// condition); a wire worker has no flat count job — every count it runs is
// chunk-fed and holds the same resident side on its feed goroutine, as
// Local's equi jobs do. The JoinEngine parameter is ignored.
func CountOwned(_ JoinEngine, r1, r2 []join.Key, cond join.Condition) int64 {
	return countOwned(r1, r2, cond, nil)
}

// countOwned is CountOwned stamping its build and its probe on clk.
func countOwned(r1, r2 []join.Key, cond join.Condition, clk *stage.Clock) int64 {
	res := localjoin.NewResident(cond, true)
	res.Insert(r1)
	res.Seal()
	clk.Mark(stage.Build)
	n, _ := res.ProbeCount(r2, false)
	clk.Mark(stage.Probe)
	return n
}
