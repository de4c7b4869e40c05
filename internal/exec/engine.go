package exec

import (
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/stage"
)

// JoinEngine names the two forms of the local join. Nothing in this module
// selects one: localjoin.FormOf picks the form from the condition and the
// resident side's span. The type, its two values, ForCond, Config.Engine and
// CountOwned's first parameter are kept only because the benchmark module
// compiles against them.
type JoinEngine int

const (
	// EngineMerge is the ordered form: rank table or sort + merge sweep.
	EngineMerge JoinEngine = iota + 1
	// EngineHash is the dense count window, or the sorted block past its
	// budget.
	EngineHash
)

// ForCond reports the family localjoin runs cond in, whatever the receiver:
// FormOf's form for an empty side.
func (JoinEngine) ForCond(cond join.Condition) JoinEngine {
	if localjoin.FormOf(cond, 0, 0, 0) == localjoin.Dense {
		return EngineHash
	}
	return EngineMerge
}

// CountOwned runs a count-only join over blocks the caller owns outright,
// with r1 resident, both lent to the side: the dense window and the table form
// count r1 into their index and probe r2 without mutating either; the merge
// form copies r1 and sorts r2 IN PLACE. Every count job exec.Local runs takes
// it, on the flat scatter; a wire worker has no flat count job — every count
// it runs is chunk-fed, its base chunks kept in the same resident side until
// its seal. The JoinEngine parameter is ignored.
func CountOwned(_ JoinEngine, r1, r2 []join.Key, cond join.Condition) int64 {
	return countOwned(r1, r2, cond, nil)
}

// countOwned is CountOwned stamping its build and its probe on clk.
func countOwned(r1, r2 []join.Key, cond join.Condition, clk *stage.Clock) int64 {
	res := localjoin.NewResident(cond, true, nil, clk)
	res.Seal(r1)
	return res.Finish(r2)
}
