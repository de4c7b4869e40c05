// Package tiling implements the rectangle-tiling algorithms of §III:
// the coarsening stage (grid tiling over the sample matrix, [16]-style
// iterative 1D refinement with binary search, with the MonotonicCoarsening
// candidate-skip speedup) and the regionalization stage (BSP [10] and the
// paper's novel MonotonicBSP, plus the binary search over the maximum region
// weight δ that turns the dual problem into a J-region partitioning).
package tiling

import (
	"math"
	"math/bits"
	"slices"

	"ewh/internal/cost"
	"ewh/internal/matrix"
)

// CoarsenOptions has no settings: it is kept only because the benchmark
// module constructs it.
type CoarsenOptions struct{}

const (
	// coarsenRounds bounds the row/column alternation rounds.
	coarsenRounds = 3
	// coarsenProbes bounds the binary-search iterations per 1D optimization.
	coarsenProbes = 40
)

// CoarsenGrid chooses row and column cuts imposing an at-most nc×nc grid over
// the sample matrix, minimizing the maximum grid-cell weight (§III-B). The
// optimizer alternates 1D optimizations — given fixed column bands, choose
// row cuts by binary search over the cell-weight threshold with a greedy
// feasibility sweep — the classic recipe for MAX-WEIGHT-ID grid tiling [16].
// Monotonicity is exploited throughout: a sweep's weight updates touch only
// the bands intersecting each line's candidate span (MonotonicCoarsening).
//
// The returned cut vectors have at most nc+1 entries each and always start
// at 0 and end at sm.Rows / sm.Cols.
func CoarsenGrid(sm *matrix.Sample, nc int, model cost.Model, _ CoarsenOptions) (rowCuts, colCuts []int) {
	if nc < 1 {
		nc = 1
	}
	rowCuts = evenCuts(sm.Rows, nc)
	colCuts = evenCuts(sm.Cols, nc)
	if sm.Rows <= nc && sm.Cols <= nc {
		return rowCuts, colCuts
	}

	best := gridMaxCellWeight(sm, rowCuts, colCuts, model)
	bestRows, bestCols := rowCuts, colCuts
	for it := 0; it < coarsenRounds; it++ {
		rowCuts = optimizeDim(sm, colCuts, nc, model, false)
		colCuts = optimizeDim(sm, rowCuts, nc, model, true)
		cur := gridMaxCellWeight(sm, rowCuts, colCuts, model)
		if cur < best {
			best, bestRows, bestCols = cur, rowCuts, colCuts
		}
		if cur >= best*0.999 {
			break
		}
	}
	return bestRows, bestCols
}

// evenCuts splits [0, n) into at most k near-equal bands.
func evenCuts(n, k int) []int {
	if k > n {
		k = n
	}
	cuts := make([]int, 0, k+1)
	for i := 0; i <= k; i++ {
		c := n * i / k
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// gridMaxCellWeight evaluates a full grid configuration.
func gridMaxCellWeight(sm *matrix.Sample, rowCuts, colCuts []int, model cost.Model) float64 {
	d := matrix.Coarsen(sm, rowCuts, colCuts)
	max := 0.0
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if !d.Candidate(i, j) {
				continue // non-candidate cells weigh 0 (§III-B)
			}
			if w := d.Weight(model, matrix.Rect{R0: i, C0: j, R1: i, C1: j}); w > max {
				max = w
			}
		}
	}
	return max
}

// optimizeDim chooses cuts along one dimension given fixed bands on the
// other: binary search the smallest threshold T for which the greedy sweep
// needs at most nc bands, then return that sweep's cuts. A probe inside the
// range of thresholds an earlier sweep settled takes that sweep's answer
// instead of sweeping again; the probes and their answers are the same.
func optimizeDim(sm *matrix.Sample, otherCuts []int, nc int, model cost.Model, transpose bool) []int {
	sw := newSweeper(sm, otherCuts, transpose)
	var known settled
	sweep := func(t float64) []int {
		if cuts, ok := known.answer(t); ok {
			return cuts
		}
		r := sw.sweep(model, t, nc)
		known = append(known, r)
		return r.cuts
	}
	lo, hi := 0.0, sm.TotalWeight(model)+1
	for p := 0; p < coarsenProbes && hi-lo > 1e-9*(hi+1); p++ {
		mid := (lo + hi) / 2
		if cuts := sweep(mid); cuts != nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	cuts := slices.Clone(sweep(hi))
	if cuts == nil {
		cuts = []int{0, sw.n} // defensive: one band always fits below TotalWeight+1
	}
	return refineCuts(cuts, nc)
}

// sweptRange is the thresholds [from, to) that sweep the same way as the one
// a sweep was run at, and what that sweep returned.
type sweptRange struct {
	from, to float64
	cuts     []int
}

// settled is the ranges of the sweeps one bisection has run.
type settled []sweptRange

// answer returns the cuts of a sweep at t when a range holds t.
func (s settled) answer(t float64) ([]int, bool) {
	for _, r := range s {
		if r.from <= t && t < r.to {
			return r.cuts, true
		}
	}
	return nil, false
}

// refineCuts splits the longest bands at their midpoints until all nc bands
// are used. Subdividing a band can only shrink grid cells, so the sweep's
// max-cell-weight guarantee is preserved while the regionalization gains
// granularity (its regions are unions of grid cells).
func refineCuts(cuts []int, nc int) []int {
	n := cuts[len(cuts)-1]
	for len(cuts)-1 < nc && len(cuts)-1 < n {
		longest, width := -1, 1
		for i := 1; i < len(cuts); i++ {
			if w := cuts[i] - cuts[i-1]; w > width {
				longest, width = i, w
			}
		}
		if longest < 0 {
			break // all bands are single lines
		}
		mid := cuts[longest-1] + width/2
		cuts = append(cuts, 0)
		copy(cuts[longest+1:], cuts[longest:])
		cuts[longest] = mid
	}
	return cuts
}

// sweeper runs greedy 1D feasibility checks over swept lines (MS rows, or MS
// columns when transposed), accumulating output per fixed band and closing a
// band whenever the next line would push some grid cell over the threshold.
// What a line adds does not depend on the threshold, so newSweeper gathers
// each line once and every sweep of the binary search replays it.
type sweeper struct {
	n        int       // number of swept lines
	otherIn  []float64 // input tuples per fixed band
	lineUnit float64   // input tuples per swept line
	rangeMax [][]float64

	// Line i's output per fixed band is vals[k] for band bands[k], k in
	// [lineAt[i], lineAt[i+1]), in the order gather first touched the bands;
	// its candidate span covers fixed bands spanLo[i]..spanHi[i] (spanLo >
	// spanHi when it has none).
	lineAt         []int32
	bands          []int32
	vals           []float64
	spanLo, spanHi []int32

	// per-sweep state
	acc     []float64
	touched []int32
}

func newSweeper(sm *matrix.Sample, otherCuts []int, transpose bool) *sweeper {
	s := &sweeper{}
	nb := len(otherCuts) - 1
	s.otherIn = make([]float64, nb)
	var otherUnit float64
	if transpose {
		s.n = sm.Cols
		s.lineUnit = sm.ColUnit
		otherUnit = sm.RowUnit
	} else {
		s.n = sm.Rows
		s.lineUnit = sm.RowUnit
		otherUnit = sm.ColUnit
	}
	for b := 0; b < nb; b++ {
		s.otherIn[b] = float64(otherCuts[b+1]-otherCuts[b]) * otherUnit
	}
	s.acc = make([]float64, nb)
	s.rangeMax = buildRangeMax(s.otherIn)

	g := gatherer{sm: sm, transpose: transpose, other: otherCuts, contrib: make([]float64, nb)}
	if transpose {
		g.colHitRows = make([][]int32, sm.Cols)
		g.colHitCnt = make([][]int32, sm.Cols)
		for r := 0; r < sm.Rows; r++ {
			cols, cnt := sm.RowHits(r)
			for k, c := range cols {
				g.colHitRows[c] = append(g.colHitRows[c], int32(r))
				g.colHitCnt[c] = append(g.colHitCnt[c], cnt[k])
			}
		}
	}
	s.lineAt = make([]int32, 1, s.n+1)
	s.spanLo = make([]int32, s.n)
	s.spanHi = make([]int32, s.n)
	for i := 0; i < s.n; i++ {
		spanLo, spanHi, hasSpan := g.gather(i)
		for _, b := range g.contribBands {
			s.bands = append(s.bands, int32(b))
			s.vals = append(s.vals, g.contrib[b])
			g.contrib[b] = 0
		}
		s.lineAt = append(s.lineAt, int32(len(s.bands)))
		s.spanLo[i], s.spanHi[i] = 1, 0
		if hasSpan {
			s.spanLo[i], s.spanHi[i] = int32(g.bandOf(spanLo)), int32(g.bandOf(spanHi))
		}
	}
	return s
}

// buildRangeMax precomputes a sparse table for O(1) range-maximum queries.
func buildRangeMax(v []float64) [][]float64 {
	n := len(v)
	if n == 0 {
		return nil
	}
	levels := bits.Len(uint(n))
	t := make([][]float64, levels)
	t[0] = v
	for l := 1; l < levels; l++ {
		span := 1 << l
		t[l] = make([]float64, n-span+1)
		for i := 0; i+span <= n; i++ {
			a, b := t[l-1][i], t[l-1][i+span/2]
			if b > a {
				a = b
			}
			t[l][i] = a
		}
	}
	return t
}

// queryRangeMax returns max(v[lo..hi]).
func (s *sweeper) queryRangeMax(lo, hi int) float64 {
	if lo > hi {
		return 0
	}
	l := bits.Len(uint(hi-lo+1)) - 1
	a, b := s.rangeMax[l][lo], s.rangeMax[l][hi-(1<<l)+1]
	if b > a {
		a = b
	}
	return a
}

// gatherer computes one swept line's output per fixed band and its candidate
// span, in scratch reused from line to line.
type gatherer struct {
	sm           *matrix.Sample
	transpose    bool
	other        []int // fixed-dimension cuts
	contrib      []float64
	contribBands []int

	// transposed views (built when transpose is set)
	colHitRows [][]int32
	colHitCnt  [][]int32
}

// bandOf maps a fixed-dimension MS index to its band.
func (g *gatherer) bandOf(c int) int {
	i, _ := slices.BinarySearch(g.other[1:], c+1)
	return i
}

// gather fills contrib/contribBands with line i's output per fixed band and
// returns the line's candidate span in fixed-dimension MS coordinates. The
// caller zeroes contrib for the next line.
func (g *gatherer) gather(i int) (spanLo, spanHi int, hasSpan bool) {
	g.contribBands = g.contribBands[:0]
	addBand := func(b int, v float64) {
		if v == 0 {
			return
		}
		if g.contrib[b] == 0 {
			g.contribBands = append(g.contribBands, b)
		}
		g.contrib[b] += v
	}
	if !g.transpose {
		cols, cnt := g.sm.RowHits(i)
		if g.sm.Scale > 0 {
			for k, c := range cols {
				addBand(g.bandOf(int(c)), g.sm.Scale*float64(cnt[k]))
			}
		}
		if g.sm.RowEmpty(i) {
			return 0, -1, false
		}
		spanLo, spanHi = g.sm.CandLo[i], g.sm.CandHi[i]
	} else {
		if g.sm.Scale > 0 {
			for k, r := range g.colHitRows[i] {
				addBand(g.bandOf(int(r)), g.sm.Scale*float64(g.colHitCnt[i][k]))
			}
		}
		var ok bool
		spanLo, spanHi, ok = g.colCandRows(i)
		if !ok {
			return 0, -1, false
		}
	}
	if g.sm.UnitCand > 0 {
		b0, b1 := g.bandOf(spanLo), g.bandOf(spanHi)
		for b := b0; b <= b1; b++ {
			il := max(spanLo, g.other[b])
			ih := min(spanHi, g.other[b+1]-1)
			if il <= ih {
				addBand(b, g.sm.UnitCand*float64(ih-il+1))
			}
		}
	}
	return spanLo, spanHi, true
}

// colCandRows returns the inclusive MS row range whose candidate spans
// contain column c; by monotonicity it is contiguous.
func (g *gatherer) colCandRows(c int) (int, int, bool) {
	sm := g.sm
	// First row with CandHi >= c (CandHi nondecreasing).
	r0, _ := slices.BinarySearch(sm.CandHi, c)
	// Last row with CandLo <= c (CandLo nondecreasing).
	r1p, _ := slices.BinarySearch(sm.CandLo, c+1)
	r1 := r1p - 1
	if r0 > r1 {
		return 0, -1, false
	}
	return r0, r1, true
}

// sweep greedily forms bands with max candidate-cell weight <= t; it returns
// the cut vector or nil when more than ncMax bands are needed or a single
// line already exceeds t. Spans are tracked in fixed bands: bandOf is
// monotone, so the band of a span's end is the end of the lines' bands.
//
// A sweep compares cell weights with t and does nothing else with it, so
// every threshold from the largest weight it kept up to, not including, the
// smallest weight it closed on sweeps the same way. The cuts come back in
// that range.
func (s *sweeper) sweep(model cost.Model, t float64, ncMax int) (same sweptRange) {
	same.from, same.to = math.Inf(-1), math.Inf(1)
	same.cuts = s.sweepIn(model, t, ncMax, &same)
	return same
}

// over reports w > t and narrows r to the thresholds that answer alike. A
// NaN weight is over no threshold and narrows nothing.
func (r *sweptRange) over(w, t float64) bool {
	if w > t {
		r.to = min(r.to, w)
		return true
	}
	if w > r.from {
		r.from = w
	}
	return false
}

// sweepIn is sweep's body: each comparison with t goes through same.over.
func (s *sweeper) sweepIn(model cost.Model, t float64, ncMax int, same *sweptRange) []int {
	for _, b := range s.touched {
		s.acc[b] = 0
	}
	s.touched = s.touched[:0]
	cuts := []int{0}
	lines := 0
	maxFixed := 0.0                    // max over touched bands of wi·otherIn + wo·acc
	curLo, curHi := int32(1), int32(0) // band candidate span (fixed bands), empty initially

	closeBand := func(at int) {
		cuts = append(cuts, at)
		for _, b := range s.touched {
			s.acc[b] = 0
		}
		s.touched = s.touched[:0]
		lines = 0
		maxFixed = 0
		curLo, curHi = 1, 0
	}

	for i := 0; i < s.n; i++ {
		bands, vals := s.bands[s.lineAt[i]:s.lineAt[i+1]], s.vals[s.lineAt[i]:s.lineAt[i+1]]
		spanLo, spanHi := s.spanLo[i], s.spanHi[i]
		// Trial weight if line i joins the current band.
		tryMax := maxFixed
		for k, b := range bands {
			v := model.Wi*s.otherIn[b] + model.Wo*(s.acc[b]+vals[k])
			if v > tryMax {
				tryMax = v
			}
		}
		tLo, tHi := curLo, curHi
		if spanLo <= spanHi {
			if tLo > tHi {
				tLo, tHi = spanLo, spanHi
			} else {
				tLo, tHi = min(tLo, spanLo), max(tHi, spanHi)
			}
		}
		if tLo <= tHi {
			// Candidate cells with no accumulated output still weigh their
			// input; include the heaviest fixed band in the candidate range.
			floor := model.Wi * s.queryRangeMax(int(tLo), int(tHi))
			if floor > tryMax {
				tryMax = floor
			}
		}
		cellW := model.Wi*float64(lines+1)*s.lineUnit + tryMax
		if lines > 0 && same.over(cellW, t) {
			closeBand(i)
			if len(cuts)-1 >= ncMax {
				return nil
			}
			// Recompute for a fresh band holding only line i.
			tryMax = 0
			for k, b := range bands {
				v := model.Wi*s.otherIn[b] + model.Wo*vals[k]
				if v > tryMax {
					tryMax = v
				}
			}
			tLo, tHi = spanLo, spanHi
			if tLo <= tHi {
				floor := model.Wi * s.queryRangeMax(int(tLo), int(tHi))
				if floor > tryMax {
					tryMax = floor
				}
			}
			cellW = model.Wi*s.lineUnit + tryMax
		}
		if same.over(cellW, t) {
			return nil
		}
		// Commit line i to the band.
		for k, b := range bands {
			if s.acc[b] == 0 {
				s.touched = append(s.touched, b)
			}
			s.acc[b] += vals[k]
			if v := model.Wi*s.otherIn[b] + model.Wo*s.acc[b]; v > maxFixed {
				maxFixed = v
			}
		}
		lines++
		curLo, curHi = tLo, tHi
	}
	if lines > 0 {
		closeBand(s.n)
	}
	if len(cuts)-1 > ncMax {
		return nil
	}
	if cuts[len(cuts)-1] != s.n {
		cuts = append(cuts, s.n)
	}
	return cuts
}
