package tiling

import (
	"ewh/internal/cost"
	"ewh/internal/matrix"
)

// MonotonicBSP is the paper's novel tiling algorithm (§III-C, Algorithm 2).
// It exploits the monotonic-join staircase twice:
//
//   - DP states are only minimal candidate rectangles — by Lemma 3.4 their
//     defining corners are candidate cells, so there are O(ncc²) of them
//     instead of the baseline's O(nc⁴) arbitrary rectangles;
//   - shrinking a split's sub-rectangle to its minimal candidate rectangle is
//     an O(log nc) monotone query instead of an O(nc) scan.
//
// This implementation realizes Algorithm 2 top-down with memoization: every
// rectangle is shrunk *before* the memo lookup, so exactly the minimal
// candidate rectangles become states, and sub-rectangles of a split are
// shrunk with Dense.MinimalCandidateRect's monotone binary searches. The
// result is identical to the baseline BSP's (both compute the optimal
// hierarchical partitioning for the given delta); only the complexity
// differs — O(nc³·log nc) here versus O(nc⁵) for the baseline, which the
// Table III benchmark measures.
type MonotonicBSP struct {
	d     *matrix.Dense
	model cost.Model

	delta    float64
	countCap int
	memo     map[uint64]bspEntry
	stats    SolverStats
	root     matrix.Rect
	rootOK   bool

	// splitCache memoizes, per minimal candidate rectangle, its shrunk
	// (childA, childB) pair for every splitter. The expansion is independent
	// of delta, so it is reused across the δ binary search's MinRegions
	// calls, saving the repeated monotone minimal-rect queries. Children are
	// stored as packed rect keys; an Empty child is encoded as emptyChild.
	splitCache map[uint64][]childPair
}

// childPair is one splitter's shrunk sub-rectangles plus its split encoding.
type childPair struct {
	a, b  uint64
	split int32
}

// emptyChild marks a split side with no candidate cells (coordinate 0xffff
// can never occur: nc fits comfortably below it).
const emptyChild = ^uint64(0)

// expand returns the delta-independent split expansion of rm, cached.
func (s *MonotonicBSP) expand(rm matrix.Rect) []childPair {
	key := rm.Key()
	if ps, ok := s.splitCache[key]; ok {
		return ps
	}
	nSplits := (rm.R1 - rm.R0) + (rm.C1 - rm.C0)
	ps := make([]childPair, 0, nSplits)
	addPair := func(a, b matrix.Rect, split int32) {
		pa, pb := emptyChild, emptyChild
		if am, ok := s.d.MinimalCandidateRect(a); ok {
			pa = am.Key()
		}
		if bm, ok := s.d.MinimalCandidateRect(b); ok {
			pb = bm.Key()
		}
		ps = append(ps, childPair{a: pa, b: pb, split: split})
	}
	for p := rm.R0 + 1; p <= rm.R1; p++ {
		addPair(
			matrix.Rect{R0: rm.R0, C0: rm.C0, R1: p - 1, C1: rm.C1},
			matrix.Rect{R0: p, C0: rm.C0, R1: rm.R1, C1: rm.C1},
			encodeSplit(false, p),
		)
	}
	for p := rm.C0 + 1; p <= rm.C1; p++ {
		addPair(
			matrix.Rect{R0: rm.R0, C0: rm.C0, R1: rm.R1, C1: p - 1},
			matrix.Rect{R0: rm.R0, C0: p, R1: rm.R1, C1: rm.C1},
			encodeSplit(true, p),
		)
	}
	s.splitCache[key] = ps
	return ps
}

// NewMonotonicBSP returns a MonotonicBSP solver over the coarsened matrix.
func NewMonotonicBSP(d *matrix.Dense, model cost.Model) *MonotonicBSP {
	return &MonotonicBSP{d: d, model: model, splitCache: make(map[uint64][]childPair)}
}

// MinRegions has BSP.MinRegions' contract: the minimum number of regions of
// weight at most delta covering every candidate cell, or a value > countCap
// as soon as the minimum provably exceeds it.
func (s *MonotonicBSP) MinRegions(delta float64, countCap int) int {
	s.delta = delta
	s.countCap = countCap
	s.memo = make(map[uint64]bspEntry)
	s.stats = SolverStats{}
	root, ok := s.d.MinimalCandidateRect(s.d.Full())
	s.root, s.rootOK = root, ok
	if !ok {
		return 0
	}
	return s.solve(root)
}

// solve expects rm to already be a minimal candidate rectangle.
func (s *MonotonicBSP) solve(rm matrix.Rect) int {
	key := rm.Key()
	if e, hit := s.memo[key]; hit {
		return e.regions
	}
	s.stats.States++
	if s.d.Weight(s.model, rm) <= s.delta {
		s.memo[key] = bspEntry{regions: 1, split: splitLeaf}
		return 1
	}
	best := s.countCap + 1
	bestSplit := splitLeaf
	for _, pair := range s.expand(rm) {
		s.stats.SplitsTried++
		var ra int
		if pair.a != emptyChild {
			ra = s.solve(matrix.RectFromKey(pair.a))
		}
		if ra >= best {
			continue
		}
		var rb int
		if pair.b != emptyChild {
			rb = s.solve(matrix.RectFromKey(pair.b))
		}
		if ra+rb < best {
			best = ra + rb
			bestSplit = pair.split
		}
	}
	s.memo[key] = bspEntry{regions: best, split: bestSplit}
	return best
}

// Regions extracts the regions of the last MinRegions call.
func (s *MonotonicBSP) Regions() []matrix.Rect {
	if !s.rootOK {
		return nil
	}
	var out []matrix.Rect
	s.extract(s.root, &out)
	return out
}

func (s *MonotonicBSP) extract(rm matrix.Rect, out *[]matrix.Rect) {
	e := s.memo[rm.Key()]
	if e.split == splitLeaf {
		*out = append(*out, rm)
		return
	}
	vertical, pos := decodeSplit(e.split)
	var a, b matrix.Rect
	if vertical {
		a = matrix.Rect{R0: rm.R0, C0: rm.C0, R1: rm.R1, C1: pos - 1}
		b = matrix.Rect{R0: rm.R0, C0: pos, R1: rm.R1, C1: rm.C1}
	} else {
		a = matrix.Rect{R0: rm.R0, C0: rm.C0, R1: pos - 1, C1: rm.C1}
		b = matrix.Rect{R0: pos, C0: rm.C0, R1: rm.R1, C1: rm.C1}
	}
	if am, ok := s.d.MinimalCandidateRect(a); ok {
		s.extract(am, out)
	}
	if bm, ok := s.d.MinimalCandidateRect(b); ok {
		s.extract(bm, out)
	}
}

// Stats reports instrumentation from the last MinRegions call.
func (s *MonotonicBSP) Stats() SolverStats { return s.stats }
