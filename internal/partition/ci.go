package partition

import (
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
	rows, cols   int
	byRow, byCol GroupTable // a grid row's workers; a grid column's
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
	rows, cols := bestR, j/bestR
	return &CI{rows: rows, cols: cols,
		byRow: gridTable(rows, cols, cols, 1), byCol: gridTable(cols, rows, 1, cols)}
}

// Grid returns the region grid dimensions.
func (s *CI) Grid() (rows, cols int) { return s.rows, s.cols }

// Name implements Scheme.
func (s *CI) Name() string { return "CI" }

// Workers implements Scheme.
func (s *CI) Workers() int { return s.rows * s.cols }

// RouteBatchR1 implements Scheme: one random grid row per key (one RNG
// draw), whose group is every column of it.
func (s *CI) RouteBatchR1(keys []join.Key, rng *stats.RNG, b *RouteBatch) {
	routeUniform(len(keys), s.rows, s.byRow, rng, b)
}

// RouteBatchR2 implements Scheme: one random grid column per key, whose group
// is every row of it.
func (s *CI) RouteBatchR2(keys []join.Key, rng *stats.RNG, b *RouteBatch) {
	routeUniform(len(keys), s.cols, s.byCol, rng, b)
}

// routeUniform draws the group of each of n keys uniformly from t's groups
// [0, groups), one draw per key.
func routeUniform(n, groups int, t GroupTable, rng *stats.RNG, b *RouteBatch) {
	var local groupTally
	ids, hits := b.begin(n, t, &local)
	for i := range ids {
		g := rng.Intn(groups)
		ids[i] = int32(g)
		hits[g]++
	}
	b.fold(hits)
}
