package matrix

import (
	"slices"

	"ewh/internal/cost"
	"ewh/internal/join"
)

// Rect is an inclusive cell rectangle [R0..R1] × [C0..C1] in matrix
// coordinates. An empty rectangle has R0 > R1 (or C0 > C1).
type Rect struct {
	R0, C0, R1, C1 int
}

// Empty reports whether the rectangle contains no cells.
func (r Rect) Empty() bool { return r.R0 > r.R1 || r.C0 > r.C1 }

// Key packs the rectangle into a map key; coordinates must fit in 16 bits,
// which holds for nc = 2J matrices by a wide margin.
func (r Rect) Key() uint64 {
	return uint64(uint16(r.R0))<<48 | uint64(uint16(r.C0))<<32 |
		uint64(uint16(r.R1))<<16 | uint64(uint16(r.C1))
}

// RectFromKey inverts Key.
func RectFromKey(k uint64) Rect {
	return Rect{
		R0: int(uint16(k >> 48)),
		C0: int(uint16(k >> 32)),
		R1: int(uint16(k >> 16)),
		C1: int(uint16(k)),
	}
}

// Dense is the coarsened matrix MC: a small nc×nc weighted grid with O(1)
// region weights via prefix sums, candidate spans per row, and O(log nc)
// minimal-candidate-rectangle queries via the monotone staircase (Lemma 3.4).
type Dense struct {
	Rows, Cols int

	// RowBounds and ColBounds give each band's half-open key range.
	RowBounds, ColBounds []join.Key

	// CandLo and CandHi are the per-row inclusive candidate column spans,
	// both nondecreasing; lo > hi means no candidates in the row.
	CandLo, CandHi []int

	rowInPre, colInPre []float64 // prefix sums of per-band input tuples
	outPre             []float64 // (Rows+1)×(Cols+1) prefix sums of cell output

	// Compacted view over rows that have candidates, for minimal-rect queries.
	candRows   []int // sorted row indices with candidates
	cLoC, cHiC []int // spans over candRows (monotone)
}

// NewDense builds a Dense matrix from explicit per-cell output estimates
// (row-major, len Rows*Cols), per-band input tuple counts and key bounds.
// candLo/candHi must be the monotone candidate spans.
func NewDense(rows, cols int, out []float64, rowIn, colIn []float64,
	rowBounds, colBounds []join.Key, candLo, candHi []int) *Dense {

	d := &Dense{
		Rows: rows, Cols: cols,
		RowBounds: rowBounds, ColBounds: colBounds,
		CandLo: candLo, CandHi: candHi,
	}
	d.rowInPre = prefix1D(rowIn)
	d.colInPre = prefix1D(colIn)
	d.outPre = make([]float64, (rows+1)*(cols+1))
	w := cols + 1
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			d.outPre[(i+1)*w+j+1] = out[i*cols+j] +
				d.outPre[i*w+j+1] + d.outPre[(i+1)*w+j] - d.outPre[i*w+j]
		}
	}
	for i := 0; i < rows; i++ {
		if candLo[i] <= candHi[i] {
			d.candRows = append(d.candRows, i)
			d.cLoC = append(d.cLoC, candLo[i])
			d.cHiC = append(d.cHiC, candHi[i])
		}
	}
	return d
}

func prefix1D(v []float64) []float64 {
	p := make([]float64, len(v)+1)
	for i, x := range v {
		p[i+1] = p[i] + x
	}
	return p
}

// Coarsen groups the sample matrix's rows and columns by the given cut index
// vectors (rowCuts[0]=0 < ... < rowCuts[k]=sm.Rows) into a Dense MC. Cell
// output is the summed estimate of the covered MS cells; per-band input is
// span × MS band unit; candidate spans are the per-band unions mapped to
// column-band indices.
func Coarsen(sm *Sample, rowCuts, colCuts []int) *Dense {
	rows, cols := len(rowCuts)-1, len(colCuts)-1
	out := make([]float64, rows*cols)
	rowIn := make([]float64, rows)
	colIn := make([]float64, cols)
	candLo := make([]int, rows)
	candHi := make([]int, rows)
	rowBounds := make([]join.Key, rows+1)
	colBounds := make([]join.Key, cols+1)
	for i := 0; i <= rows; i++ {
		rowBounds[i] = sm.RowBounds[rowCuts[i]]
	}
	for j := 0; j <= cols; j++ {
		colBounds[j] = sm.ColBounds[colCuts[j]]
	}
	for i := 0; i < rows; i++ {
		rowIn[i] = float64(rowCuts[i+1]-rowCuts[i]) * sm.RowUnit
	}
	for j := 0; j < cols; j++ {
		colIn[j] = float64(colCuts[j+1]-colCuts[j]) * sm.ColUnit
	}

	// colOf maps an MS column index to its MC column band.
	colOf := func(c int) int {
		i, _ := slices.BinarySearch(colCuts[1:], c+1)
		return i
	}
	for i := 0; i < rows; i++ {
		msR0, msR1 := rowCuts[i], rowCuts[i+1]-1
		lo, hi := 1, 0
		for r := msR0; r <= msR1; r++ {
			if sm.RowEmpty(r) {
				continue
			}
			if lo > hi {
				lo, hi = sm.CandLo[r], sm.CandHi[r]
			} else {
				if sm.CandLo[r] < lo {
					lo = sm.CandLo[r]
				}
				if sm.CandHi[r] > hi {
					hi = sm.CandHi[r]
				}
			}
		}
		if lo > hi {
			candLo[i], candHi[i] = 1, 0
			continue
		}
		cl, ch := colOf(lo), colOf(hi)
		candLo[i], candHi[i] = cl, ch

		// Output: sample hits scaled, plus uniform per-candidate weight.
		for r := msR0; r <= msR1; r++ {
			hc, cnt := sm.RowHits(r)
			for k, c := range hc {
				out[i*cols+colOf(int(c))] += sm.Scale * float64(cnt[k])
			}
			if sm.UnitCand > 0 && !sm.RowEmpty(r) {
				// Spread the row's candidate count over the touched MC cols.
				rl, rh := sm.CandLo[r], sm.CandHi[r]
				for j := colOf(rl); j <= colOf(rh); j++ {
					il := max(rl, colCuts[j])
					ih := min(rh, colCuts[j+1]-1)
					if il <= ih {
						out[i*cols+j] += sm.UnitCand * float64(ih-il+1)
					}
				}
			}
		}
	}
	enforceMonotoneSpans(candLo, candHi)
	return NewDense(rows, cols, out, rowIn, colIn, rowBounds, colBounds, candLo, candHi)
}

// Output returns the estimated output tuples of the rectangle in O(1).
func (d *Dense) Output(r Rect) float64 {
	if r.Empty() {
		return 0
	}
	w := d.Cols + 1
	return d.outPre[(r.R1+1)*w+r.C1+1] - d.outPre[r.R0*w+r.C1+1] -
		d.outPre[(r.R1+1)*w+r.C0] + d.outPre[r.R0*w+r.C0]
}

// Input returns the input tuples of the rectangle: the tuples of the row
// bands plus those of the column bands (the semi-perimeter cost).
func (d *Dense) Input(r Rect) float64 {
	if r.Empty() {
		return 0
	}
	return d.rowInPre[r.R1+1] - d.rowInPre[r.R0] + d.colInPre[r.C1+1] - d.colInPre[r.C0]
}

// Weight returns the modeled work of the rectangle.
func (d *Dense) Weight(m cost.Model, r Rect) float64 {
	if r.Empty() {
		return 0
	}
	return m.Weight(d.Input(r), d.Output(r))
}

// Full returns the rectangle covering the whole matrix.
func (d *Dense) Full() Rect { return Rect{0, 0, d.Rows - 1, d.Cols - 1} }

// Candidate reports whether cell (i, j) is a candidate cell.
func (d *Dense) Candidate(i, j int) bool {
	return d.CandLo[i] <= j && j <= d.CandHi[i]
}

// CandCount returns the number of candidate cells in the rectangle.
func (d *Dense) CandCount(r Rect) int64 {
	var n int64
	for i := r.R0; i <= r.R1 && i < d.Rows; i++ {
		lo, hi := max(d.CandLo[i], r.C0), min(d.CandHi[i], r.C1)
		if lo <= hi {
			n += int64(hi - lo + 1)
		}
	}
	return n
}

// MinimalCandidateRect shrinks r to the bounding rectangle of the candidate
// cells it contains (BSP line 3 / Algorithm 2 lines 21-22). ok is false when
// r contains no candidate cells. The monotone staircase makes this an
// O(log nc) query, and Lemma 3.4 guarantees the returned rectangle's
// defining corners are candidate cells.
func (d *Dense) MinimalCandidateRect(r Rect) (Rect, bool) {
	if r.Empty() {
		return Rect{}, false
	}
	// Compacted candidate rows within [R0, R1].
	a, _ := slices.BinarySearch(d.candRows, r.R0)
	bp, _ := slices.BinarySearch(d.candRows, r.R1+1)
	b := bp - 1
	if a > b {
		return Rect{}, false
	}
	// First compacted row whose span reaches C0 (cHiC nondecreasing).
	iOff, _ := slices.BinarySearch(d.cHiC[a:b+1], r.C0)
	i := a + iOff
	// Last compacted row whose span starts at or before C1 (cLoC nondecreasing).
	jOff, _ := slices.BinarySearch(d.cLoC[a:b+1], r.C1+1)
	j := a + jOff - 1
	if i > j {
		return Rect{}, false
	}
	out := Rect{
		R0: d.candRows[i],
		C0: max(r.C0, d.cLoC[i]),
		R1: d.candRows[j],
		C1: min(r.C1, d.cHiC[j]),
	}
	return out, true
}

// CellOutput returns cell (i, j)'s output estimate, recovered from the
// prefix sums.
func (d *Dense) CellOutput(i, j int) float64 {
	return d.Output(Rect{R0: i, C0: j, R1: i, C1: j})
}

// RowIn returns row band i's input tuples.
func (d *Dense) RowIn(i int) float64 { return d.rowInPre[i+1] - d.rowInPre[i] }

// ColIn returns column band j's input tuples.
func (d *Dense) ColIn(j int) float64 { return d.colInPre[j+1] - d.colInPre[j] }

// ScaleRegions returns a copy of the matrix with the cell outputs inside
// each rectangle multiplied by the corresponding factor — the feedback
// correction used when measured region outputs diverge from the estimates.
// Rectangles must be disjoint (they are, for any partitioning's regions).
func (d *Dense) ScaleRegions(rects []Rect, factors []float64) *Dense {
	out := make([]float64, d.Rows*d.Cols)
	rowIn := make([]float64, d.Rows)
	colIn := make([]float64, d.Cols)
	for i := 0; i < d.Rows; i++ {
		rowIn[i] = d.RowIn(i)
		for j := 0; j < d.Cols; j++ {
			out[i*d.Cols+j] = d.CellOutput(i, j)
		}
	}
	for j := 0; j < d.Cols; j++ {
		colIn[j] = d.ColIn(j)
	}
	for k, r := range rects {
		for i := r.R0; i <= r.R1; i++ {
			for j := r.C0; j <= r.C1; j++ {
				out[i*d.Cols+j] *= factors[k]
			}
		}
	}
	candLo := append([]int(nil), d.CandLo...)
	candHi := append([]int(nil), d.CandHi...)
	return NewDense(d.Rows, d.Cols, out, rowIn, colIn, d.RowBounds, d.ColBounds, candLo, candHi)
}

// TotalWeight returns the weight of the whole matrix as one region.
func (d *Dense) TotalWeight(m cost.Model) float64 {
	return d.Weight(m, d.Full())
}

// MaxCandCellWeight returns the largest single-cell weight over candidate
// cells: a lower bound on any partitioning's maximum region weight, since a
// region contains at least one cell.
func (d *Dense) MaxCandCellWeight(m cost.Model) float64 {
	heaviest := 0.0
	for i := 0; i < d.Rows; i++ {
		for j := max(0, d.CandLo[i]); j <= d.CandHi[i] && j < d.Cols; j++ {
			heaviest = max(heaviest, d.Weight(m, Rect{i, j, i, j}))
		}
	}
	return heaviest
}
