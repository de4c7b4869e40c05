package tiling

import (
	"ewh/internal/cost"
	"ewh/internal/matrix"
)

// SolverStats instruments a solve for the Table III ablation.
type SolverStats struct {
	// States is the number of distinct DP states (rectangles) evaluated.
	States int
	// SplitsTried is the number of splitter evaluations.
	SplitsTried int
}

// bspEntry is one memoized DP state.
type bspEntry struct {
	regions int
	// split encodes the chosen splitter: -1 = leaf (single region),
	// otherwise dir<<30 | pos with dir 0 = horizontal cut above row pos,
	// dir 1 = vertical cut left of column pos.
	split int32
}

const (
	splitLeaf = int32(-1)
	dirShift  = 30
	posMask   = (1 << dirShift) - 1
)

func encodeSplit(vertical bool, pos int) int32 {
	v := int32(pos)
	if vertical {
		v |= 1 << dirShift
	}
	return v
}

func decodeSplit(s int32) (vertical bool, pos int) {
	return s&(1<<dirShift) != 0, int(s & posMask)
}

// BSP is the baseline Binary Space Partition solver [10], [17], extended to
// join load balancing by shrinking every rectangle to its minimal candidate
// rectangle before weighing (Algorithm 1, line 3). As in the original
// algorithm, it memoizes on the unshrunk rectangle — its state space is all
// reachable rectangles, O(nc⁴) in the worst case — and it computes minimal
// candidate rectangles by scanning rows, without using monotonicity. This is
// the Table III baseline that MonotonicBSP improves on.
type BSP struct {
	d     *matrix.Dense
	model cost.Model

	delta    float64
	countCap int
	memo     map[uint64]bspEntry
	stats    SolverStats
}

// NewBSP returns a baseline BSP solver over the coarsened matrix.
func NewBSP(d *matrix.Dense, model cost.Model) *BSP {
	return &BSP{d: d, model: model}
}

// scanMinimalCandidateRect computes the candidate bounding box of r by
// scanning every row — the non-monotonic O(rows) method the baseline uses.
func scanMinimalCandidateRect(d *matrix.Dense, r matrix.Rect) (matrix.Rect, bool) {
	if r.Empty() {
		return matrix.Rect{}, false
	}
	out := matrix.Rect{R0: -1}
	for i := r.R0; i <= r.R1; i++ {
		lo, hi := d.CandLo[i], d.CandHi[i]
		if lo < r.C0 {
			lo = r.C0
		}
		if hi > r.C1 {
			hi = r.C1
		}
		if lo > hi {
			continue
		}
		if out.R0 < 0 {
			out.R0, out.C0, out.C1 = i, lo, hi
		} else {
			if lo < out.C0 {
				out.C0 = lo
			}
			if hi > out.C1 {
				out.C1 = hi
			}
		}
		out.R1 = i
	}
	if out.R0 < 0 {
		return matrix.Rect{}, false
	}
	return out, true
}

// MinRegions covers all candidate cells of the matrix with hierarchical
// rectangular regions weighing at most delta each (the DRTILE dual problem
// BSP solves, §III-C) and returns the minimum number needed, or a value >
// countCap as soon as the minimum provably exceeds countCap (early exit for
// the caller's binary search over delta).
func (s *BSP) MinRegions(delta float64, countCap int) int {
	s.delta = delta
	s.countCap = countCap
	s.memo = make(map[uint64]bspEntry)
	s.stats = SolverStats{}
	return s.solve(s.d.Full())
}

func (s *BSP) solve(r matrix.Rect) int {
	if r.Empty() {
		return 0
	}
	key := r.Key()
	if e, hit := s.memo[key]; hit {
		return e.regions
	}
	rm, ok := scanMinimalCandidateRect(s.d, r)
	if !ok {
		s.memo[key] = bspEntry{regions: 0, split: splitLeaf}
		return 0
	}
	s.stats.States++
	if s.d.Weight(s.model, rm) <= s.delta {
		s.memo[key] = bspEntry{regions: 1, split: splitLeaf}
		return 1
	}
	best := s.countCap + 1
	bestSplit := splitLeaf
	// Horizontal splits: cut above row p of the minimal rectangle.
	for p := rm.R0 + 1; p <= rm.R1; p++ {
		s.stats.SplitsTried++
		a := s.solve(matrix.Rect{R0: rm.R0, C0: rm.C0, R1: p - 1, C1: rm.C1})
		if a >= best {
			continue
		}
		b := s.solve(matrix.Rect{R0: p, C0: rm.C0, R1: rm.R1, C1: rm.C1})
		if a+b < best {
			best = a + b
			bestSplit = encodeSplit(false, p)
		}
	}
	// Vertical splits: cut left of column p.
	for p := rm.C0 + 1; p <= rm.C1; p++ {
		s.stats.SplitsTried++
		a := s.solve(matrix.Rect{R0: rm.R0, C0: rm.C0, R1: rm.R1, C1: p - 1})
		if a >= best {
			continue
		}
		b := s.solve(matrix.Rect{R0: rm.R0, C0: p, R1: rm.R1, C1: rm.C1})
		if a+b < best {
			best = a + b
			bestSplit = encodeSplit(true, p)
		}
	}
	s.memo[key] = bspEntry{regions: best, split: bestSplit}
	return best
}

// Regions extracts the regions of the last MinRegions call.
func (s *BSP) Regions() []matrix.Rect {
	var out []matrix.Rect
	s.extract(s.d.Full(), &out)
	return out
}

func (s *BSP) extract(r matrix.Rect, out *[]matrix.Rect) {
	if r.Empty() {
		return
	}
	e, hit := s.memo[r.Key()]
	if !hit || e.regions == 0 {
		return
	}
	rm, ok := scanMinimalCandidateRect(s.d, r)
	if !ok {
		return
	}
	if e.split == splitLeaf {
		*out = append(*out, rm)
		return
	}
	vertical, pos := decodeSplit(e.split)
	if vertical {
		s.extract(matrix.Rect{R0: rm.R0, C0: rm.C0, R1: rm.R1, C1: pos - 1}, out)
		s.extract(matrix.Rect{R0: rm.R0, C0: pos, R1: rm.R1, C1: rm.C1}, out)
	} else {
		s.extract(matrix.Rect{R0: rm.R0, C0: rm.C0, R1: pos - 1, C1: rm.C1}, out)
		s.extract(matrix.Rect{R0: pos, C0: rm.C0, R1: rm.R1, C1: rm.C1}, out)
	}
}

// Stats reports instrumentation from the last MinRegions call.
func (s *BSP) Stats() SolverStats { return s.stats }
