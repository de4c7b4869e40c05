// Package partition implements the three partitioning schemes the paper
// evaluates (§II, §VI): CI (content-insensitive, 1-Bucket [4]), CSI
// (content-sensitive on input statistics, M-Bucket [4]) and CSIO (the
// paper's equi-weight histogram scheme). A scheme decides, for each incoming
// tuple, the set of workers (regions) that must receive it.
package partition

import (
	"ewh/internal/join"
	"ewh/internal/stats"
)

// Scheme routes tuples to workers, a whole shard of keys per call: that
// amortizes interface dispatch over the shard and folds the per-worker
// tallies into the routing loop. rng is consulted only by randomized schemes
// (CI, Broadcast, Hash's heavy keys), one draw per key.
type Scheme interface {
	// Name identifies the scheme ("CI", "CSI", "CSIO").
	Name() string
	// Workers returns the number of workers the scheme routes to.
	Workers() int
	// RouteBatchR1 batch-routes R1 keys into b (appending to b.Routes/Lens,
	// tallying b.Counts, and setting b.Fanout when the fan-out is uniform).
	RouteBatchR1(keys []join.Key, rng *stats.RNG, b *RouteBatch)
	// RouteBatchR2 batch-routes R2 keys into b.
	RouteBatchR2(keys []join.Key, rng *stats.RNG, b *RouteBatch)
}

// RouteBatch accumulates the routing decisions for a whole shard of keys —
// the shuffle hot path's unit of work. Receiver ids are appended to Routes,
// concatenated in key order; per-worker totals are tallied into Counts in
// the same loop (so callers never rescan Routes). Per-key receiver counts go
// to Lens ONLY when Fanout == 0; a scheme whose every key routes to the same
// number of workers sets Fanout to that constant instead and leaves Lens
// untouched, which lets the shuffle skip an entire per-tuple array.
type RouteBatch struct {
	Routes []int32 // receiver worker ids, concatenated per key
	Lens   []int32 // per-key receiver counts; meaningful only when Fanout == 0
	Counts []int   // per-worker received-tuple totals; len = Workers()
	Fanout int     // > 0: every key routed to exactly Fanout workers
}

// Reset prepares the batch for routing into j workers, retaining backing
// storage across shards.
func (b *RouteBatch) Reset(j, sizeHint int) {
	if cap(b.Routes) < sizeHint {
		b.Routes = make([]int32, 0, sizeHint)
	} else {
		b.Routes = b.Routes[:0]
	}
	b.Lens = b.Lens[:0]
	if cap(b.Counts) < j {
		b.Counts = make([]int, j)
	} else {
		b.Counts = b.Counts[:j]
		for i := range b.Counts {
			b.Counts[i] = 0
		}
	}
	b.Fanout = 0
}

// RouteBatchR1 batch-routes R1 keys through s; b must have been Reset for
// s.Workers(). It and RouteBatchR2 are the function form of the methods, kept
// for the benchmark module's route probe.
func RouteBatchR1(s Scheme, keys []join.Key, rng *stats.RNG, b *RouteBatch) {
	s.RouteBatchR1(keys, rng, b)
}

// RouteBatchR2 batch-routes R2 keys through s.
func RouteBatchR2(s Scheme, keys []join.Key, rng *stats.RNG, b *RouteBatch) {
	s.RouteBatchR2(keys, rng, b)
}
