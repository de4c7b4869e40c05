package tiling

import (
	"fmt"

	"ewh/internal/cost"
	"ewh/internal/join"
	"ewh/internal/matrix"
)

// Region is one bucket of the equi-weight histogram MH: a rectangle of
// coarsened-matrix cells assigned to one machine, with the derived join-key
// routing ranges and its modeled weight components.
type Region struct {
	// Rect is the region's cell rectangle in MC coordinates.
	Rect matrix.Rect
	// RowLo/RowHi and ColLo/ColHi are the half-open join-key ranges
	// [lo, hi) of R1 and R2 tuples routed to this region.
	RowLo, RowHi join.Key
	ColLo, ColHi join.Key
	// Input, Output and Weight are the modeled costs (§II).
	Input, Output, Weight float64
}

// String implements fmt.Stringer.
func (r Region) String() string {
	return fmt.Sprintf("region[%d..%d]x[%d..%d] keys R1:[%d,%d) R2:[%d,%d) w=%.1f",
		r.Rect.R0, r.Rect.R1, r.Rect.C0, r.Rect.C1, r.RowLo, r.RowHi, r.ColLo, r.ColHi, r.Weight)
}

// RegionalizeOptions has no settings: it is kept only because the benchmark
// module constructs it.
type RegionalizeOptions struct{}

// regionalizeProbes bounds the δ binary-search iterations, giving a relative
// resolution far below the scheme's sampling error.
const regionalizeProbes = 40

// Regionalize builds the equi-weight histogram MH: at most j rectangular
// regions over the coarsened matrix minimizing the maximum region weight δ,
// via binary search over δ around the BSP dual (§III-C). It returns the
// regions with key ranges and weights filled in; an empty slice means the
// join produces no output (no candidate cells).
func Regionalize(d *matrix.Dense, model cost.Model, j int, _ RegionalizeOptions) ([]Region, error) {
	if j < 1 {
		return nil, fmt.Errorf("tiling: j = %d < 1", j)
	}
	solver := NewMonotonicBSP(d, model)

	// δ is bounded below by the heaviest single candidate cell and by the
	// total weight divided among j machines (no-replication bound), and
	// above by the whole matrix as one region. The optimum is usually within
	// a small factor of the lower bound (BSP is a 2-approximation of the
	// arbitrary-partitioning optimum), so bracket it by doubling before the
	// binary search instead of starting from the full total.
	lo := d.MaxCandCellWeight(model)
	if t := d.TotalWeight(model) / float64(j); t > lo {
		lo = t
	}
	total := d.TotalWeight(model)
	if total == 0 {
		return nil, nil // no candidates, empty join
	}
	hi := total
	if solver.MinRegions(lo, j) <= j {
		hi = lo
	} else {
		bracket := lo
		for p := 0; p < regionalizeProbes; p++ {
			bracket *= 2
			if bracket >= total {
				bracket = total
				break
			}
			if solver.MinRegions(bracket, j) <= j {
				break
			}
			lo = bracket
		}
		hi = bracket
		for p := 0; p < regionalizeProbes && hi-lo > 1e-3*hi; p++ {
			mid := lo + (hi-lo)/2
			if solver.MinRegions(mid, j) <= j {
				hi = mid
			} else {
				lo = mid
			}
		}
	}
	n := solver.MinRegions(hi, j)
	if n > j {
		return nil, fmt.Errorf("tiling: solver needs %d regions at upper bound, j = %d", n, j)
	}
	rects := solver.Regions()
	regions := make([]Region, 0, len(rects))
	for _, r := range rects {
		regions = append(regions, makeRegion(d, model, r))
	}
	return regions, nil
}

func makeRegion(d *matrix.Dense, model cost.Model, r matrix.Rect) Region {
	in, out := d.Input(r), d.Output(r)
	return Region{
		Rect:   r,
		RowLo:  d.RowBounds[r.R0],
		RowHi:  d.RowBounds[r.R1+1],
		ColLo:  d.ColBounds[r.C0],
		ColHi:  d.ColBounds[r.C1+1],
		Input:  in,
		Output: out,
		Weight: model.Weight(in, out),
	}
}

// MaxWeight returns the maximum region weight of a partitioning — the
// quantity load balancing minimizes and Fig. 4h reports.
func MaxWeight(regions []Region) float64 {
	max := 0.0
	for _, r := range regions {
		if r.Weight > max {
			max = r.Weight
		}
	}
	return max
}
