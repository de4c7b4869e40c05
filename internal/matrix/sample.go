// Package matrix models the join matrix of §II: rows are R1 join-key ranges,
// columns are R2 join-key ranges, and cell (i,j) may hold output tuples iff
// it is a candidate cell for the join condition.
//
// Two representations are provided. Sample is the ns×ns sample matrix MS
// (§III-A); because ns = √(2nJ) can reach tens of thousands while only
// so = Θ(ns) cells receive output-sample hits, Sample stores per-row sparse
// hit lists and per-row candidate spans (monotonic joins make candidate
// cells consecutive per row). Dense is the coarsened matrix MC (§III-B);
// nc = 2J is small, so Dense keeps full prefix sums for O(1) region weights,
// which the tiling algorithms rely on.
package matrix

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"ewh/internal/cost"
	"ewh/internal/histogram"
	"ewh/internal/join"
)

// Sample is the sparse sample matrix MS. Cell output estimates come from a
// uniform random output sample (Scale · hits) and/or a uniform constant per
// candidate cell (UnitCand · candidates). The CSIO scheme uses the former;
// the CSI baseline, which has no output statistics, uses the latter (§II-B:
// "assigns a constant to each candidate cell").
type Sample struct {
	Rows, Cols int

	// RowBounds and ColBounds are the half-open key ranges of the grid bands:
	// row i covers keys [RowBounds[i], RowBounds[i+1]).
	RowBounds, ColBounds []join.Key

	// RowUnit and ColUnit are the input tuples represented by one row/column
	// band (n1/ns1, n2/ns2): the expected equi-depth bucket size.
	RowUnit, ColUnit float64

	// CandLo and CandHi give the inclusive candidate column span of each row;
	// CandLo[i] > CandHi[i] means the row has no candidates. Both arrays are
	// nondecreasing (monotonic join staircase).
	CandLo, CandHi []int

	// Scale converts an output-sample hit count to estimated output tuples
	// (M/so). Zero when no output sample was collected.
	Scale float64

	// UnitCand is the assumed output per candidate cell for schemes without
	// output statistics. Zero for CSIO.
	UnitCand float64

	// M is the join output size from Stream-Sample — exact, or scaled up from
	// a sample of R1 — and 0 without an output sample.
	M int64

	// SampleSize is the number of output-sample pairs MS was built from.
	SampleSize int

	hitCols [][]int32 // per row: sorted distinct candidate cols with hits
	hitCnt  [][]int32 // parallel counts
}

// BuildSample constructs MS from the two equi-depth histograms, the join
// condition (for candidate spans) and the output sample (pairs, m). n1 and
// n2 are the relation sizes. Pass an empty pairs slice and m=0 together with
// unitCand > 0 to build the CSI-style uniform matrix.
func BuildSample(rh, ch *histogram.EquiDepth, cond join.Condition,
	pairs [][2]join.Key, m int64, n1, n2 int, unitCand float64) (*Sample, error) {

	rows, cols := rh.Buckets(), ch.Buckets()
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("matrix: empty histogram (rows=%d cols=%d)", rows, cols)
	}
	s := &Sample{
		Rows:       rows,
		Cols:       cols,
		RowBounds:  rh.Boundaries(),
		ColBounds:  ch.Boundaries(),
		RowUnit:    float64(n1) / float64(rows),
		ColUnit:    float64(n2) / float64(cols),
		CandLo:     make([]int, rows),
		CandHi:     make([]int, rows),
		UnitCand:   unitCand,
		M:          m,
		SampleSize: len(pairs),
		hitCols:    make([][]int32, rows),
		hitCnt:     make([][]int32, rows),
	}
	if len(pairs) > 0 {
		if m <= 0 {
			return nil, fmt.Errorf("matrix: output sample of %d pairs but m = %d", len(pairs), m)
		}
		s.Scale = float64(m) / float64(len(pairs))
	}

	// Candidate spans per row from the joinable range of the row's key range.
	// Edge bands are widened to ±∞ for candidacy: at routing time keys the
	// sample missed clamp into the edge buckets, so output involving them
	// must still land in covered (candidate) cells. The last column band is
	// likewise open-ended, so jHi comparisons use the widened upper bound.
	cb := s.ColBounds
	for i := 0; i < rows; i++ {
		rLo, rHi := rh.Bounds(i)
		if i == 0 {
			rLo = math.MinInt64
		}
		if i == rows-1 {
			rHi = math.MaxInt64
		}
		jLo, _ := cond.JoinableRange(rLo)
		_, jHi := cond.JoinableRange(rHi - 1)
		// First column whose (widened) upper bound exceeds jLo.
		lo := sort.Search(cols, func(j int) bool {
			if j == cols-1 {
				return true // last column is open-ended upward
			}
			return cb[j+1] > jLo
		})
		// Last column whose (widened) lower bound is <= jHi.
		hi := sort.Search(cols, func(j int) bool {
			if j == 0 {
				return false // first column is open-ended downward
			}
			return cb[j] > jHi
		}) - 1
		if lo >= cols || hi < 0 || lo > hi {
			s.CandLo[i], s.CandHi[i] = 1, 0 // empty span
			continue
		}
		s.CandLo[i], s.CandHi[i] = lo, hi
	}
	enforceMonotoneSpans(s.CandLo, s.CandHi)

	// Place output-sample hits.
	if len(pairs) > 0 {
		type cell struct{ r, c int32 }
		counts := make(map[cell]int32, len(pairs))
		for _, p := range pairs {
			counts[cell{int32(rh.Bucket(p[0])), int32(ch.Bucket(p[1]))}]++
		}
		perRow := make(map[int32][]cell)
		for c := range counts {
			perRow[c.r] = append(perRow[c.r], c)
		}
		for r, cs := range perRow {
			slices.SortFunc(cs, func(a, b cell) int { return cmp.Compare(a.c, b.c) })
			colsArr := make([]int32, len(cs))
			cntArr := make([]int32, len(cs))
			for i, c := range cs {
				colsArr[i] = c.c
				cntArr[i] = counts[c]
			}
			s.hitCols[r] = colsArr
			s.hitCnt[r] = cntArr
		}
	}
	return s, nil
}

// enforceMonotoneSpans patches empty rows so both span arrays stay
// nondecreasing: an empty row inherits the next non-empty row's lo and the
// previous non-empty row's hi. For monotonic joins empty rows can only form
// a prefix and/or suffix (the rows whose joinable interval intersects the
// fixed column domain are contiguous), so patched rows stay empty (lo > hi)
// while preserving the staircase the monotonic queries rely on.
func enforceMonotoneSpans(lo, hi []int) {
	n := len(lo)
	empty := make([]bool, n)
	for i := range lo {
		empty[i] = lo[i] > hi[i]
	}
	nextLo := int(^uint(0) >> 1) // max int
	for i := n - 1; i >= 0; i-- {
		if empty[i] {
			lo[i] = nextLo
		} else {
			nextLo = lo[i]
		}
	}
	prevHi := -1
	for i := 0; i < n; i++ {
		if empty[i] {
			hi[i] = prevHi
		} else {
			prevHi = hi[i]
		}
	}
}

// RowEmpty reports whether row i has no candidate cells.
func (s *Sample) RowEmpty(i int) bool { return s.CandLo[i] > s.CandHi[i] }

// CandCount returns the number of candidate cells in the rectangle with
// inclusive row range [r0,r1] and column range [c0,c1].
func (s *Sample) CandCount(r0, r1, c0, c1 int) int64 {
	var n int64
	for i := r0; i <= r1; i++ {
		lo, hi := s.CandLo[i], s.CandHi[i]
		if lo < c0 {
			lo = c0
		}
		if hi > c1 {
			hi = c1
		}
		if lo <= hi {
			n += int64(hi - lo + 1)
		}
	}
	return n
}

// Hits returns the total output-sample hit count within the rectangle.
func (s *Sample) Hits(r0, r1, c0, c1 int) int64 {
	var n int64
	for i := r0; i <= r1; i++ {
		cols := s.hitCols[i]
		if len(cols) == 0 {
			continue
		}
		lo, _ := slices.BinarySearch(cols, int32(c0))
		hi, _ := slices.BinarySearch(cols, int32(c1)+1)
		for j := lo; j < hi; j++ {
			n += int64(s.hitCnt[i][j])
		}
	}
	return n
}

// RowHits returns row i's sparse hit list (sorted cols, parallel counts).
// Callers must not mutate the slices.
func (s *Sample) RowHits(i int) (cols []int32, cnt []int32) {
	return s.hitCols[i], s.hitCnt[i]
}

// Output returns the estimated output tuples of the rectangle:
// Scale·hits + UnitCand·candidates.
func (s *Sample) Output(r0, r1, c0, c1 int) float64 {
	var out float64
	if s.Scale > 0 {
		out += s.Scale * float64(s.Hits(r0, r1, c0, c1))
	}
	if s.UnitCand > 0 {
		out += s.UnitCand * float64(s.CandCount(r0, r1, c0, c1))
	}
	return out
}

// Input returns the input tuples of the rectangle: its semi-perimeter in
// band units times the per-band tuple counts.
func (s *Sample) Input(r0, r1, c0, c1 int) float64 {
	return float64(r1-r0+1)*s.RowUnit + float64(c1-c0+1)*s.ColUnit
}

// Weight returns the modeled work of the rectangle.
func (s *Sample) Weight(m cost.Model, r0, r1, c0, c1 int) float64 {
	return m.Weight(s.Input(r0, r1, c0, c1), s.Output(r0, r1, c0, c1))
}

// MaxCellWeight returns σ, the maximum single-cell weight over candidate
// cells (Lemma 3.1's quantity). Cells without hits weigh
// model.Weight(RowUnit+ColUnit, UnitCand); cells with hits add Scale·cnt.
func (s *Sample) MaxCellWeight(m cost.Model) float64 {
	base := m.Weight(s.RowUnit+s.ColUnit, s.UnitCand)
	max := 0.0
	any := false
	for i := 0; i < s.Rows; i++ {
		if !s.RowEmpty(i) {
			any = true
			if base > max {
				max = base
			}
		}
		for _, c := range s.hitCnt[i] {
			w := m.Weight(s.RowUnit+s.ColUnit, s.UnitCand+s.Scale*float64(c))
			if w > max {
				max = w
			}
		}
	}
	if !any {
		return 0
	}
	return max
}

// TotalWeight returns the weight of the whole matrix treated as one region:
// the no-replication lower bound w(M) used to derive wOPT (§III-A).
func (s *Sample) TotalWeight(m cost.Model) float64 {
	return s.Weight(m, 0, s.Rows-1, 0, s.Cols-1)
}
