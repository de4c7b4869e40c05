package partition

import (
	"math"

	"ewh/internal/join"
	"ewh/internal/stats"
)

// CI is the content-insensitive scheme (1-Bucket [4], §II-A): the join
// matrix is covered by a rows×cols grid of equal-area regions. An incoming
// R1 tuple picks a random grid row and is replicated to every region in it
// (cols copies); an R2 tuple picks a random grid column (rows copies). Every
// tuple pair meets in exactly one region, so the join is complete and
// duplicate-free regardless of the join condition — at the price of a
// replication factor of rows+cols, the scheme's defining weakness for
// low-selectivity joins.
type CI struct {
	rows, cols int
}

// NewCI builds the scheme for j workers, choosing the divisor factorization
// rows×cols = j that minimizes the replication factor rows+cols — the most
// square grid using every machine (the paper's J=32 runs use 4×8).
func NewCI(j int) *CI {
	if j < 1 {
		j = 1
	}
	bestR := 1
	for r := 1; r*r <= j; r++ {
		if j%r == 0 {
			bestR = r
		}
	}
	return &CI{rows: bestR, cols: j / bestR}
}

// Grid returns the region grid dimensions.
func (s *CI) Grid() (rows, cols int) { return s.rows, s.cols }

// Name implements Scheme.
func (s *CI) Name() string { return "CI" }

// Workers implements Scheme.
func (s *CI) Workers() int { return s.rows * s.cols }

// RouteBatchR1 implements Scheme: one random row per key (one RNG draw),
// replicated across all columns.
// The fan-out is the constant cols, so Lens is skipped entirely; per-row
// tallies are kept in a small local array and folded into Counts once.
func (s *CI) RouteBatchR1(keys []join.Key, rng *stats.RNG, b *RouteBatch) {
	cols := int32(s.cols)
	rowHits := make([]int, s.rows)
	routes := b.Routes
	for range keys {
		r := rng.Intn(s.rows)
		rowHits[r]++
		base := int32(r) * cols
		for c := int32(0); c < cols; c++ {
			routes = append(routes, base+c)
		}
	}
	b.Routes = routes
	for r, n := range rowHits {
		for c := 0; c < s.cols; c++ {
			b.Counts[r*s.cols+c] += n
		}
	}
	b.Fanout = s.cols
}

// RouteBatchR2 implements Scheme: one random column per key, replicated
// across all rows; constant fan-out rows.
func (s *CI) RouteBatchR2(keys []join.Key, rng *stats.RNG, b *RouteBatch) {
	cols := int32(s.cols)
	rows := int32(s.rows)
	colHits := make([]int, s.cols)
	routes := b.Routes
	for range keys {
		c := int32(rng.Intn(s.cols))
		colHits[c]++
		for r := int32(0); r < rows; r++ {
			routes = append(routes, r*cols+c)
		}
	}
	b.Routes = routes
	for c, n := range colHits {
		for r := 0; r < s.rows; r++ {
			b.Counts[r*s.cols+c] += n
		}
	}
	b.Fanout = s.rows
}

// IdealGrid reports the most balanced achievable grid for j workers —
// exposed for tests and capacity planning.
func IdealGrid(j int) (rows, cols int) {
	r := int(math.Sqrt(float64(j)))
	for ; r > 1; r-- {
		if j%r == 0 {
			break
		}
	}
	return r, j / r
}
