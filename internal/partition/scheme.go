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
	// RouteBatchR1 batch-routes R1 keys into b, which must have been Reset
	// for Workers(): one group id per key, the table that resolves them, and
	// the per-worker tallies added to b.Counts.
	RouteBatchR1(keys []join.Key, rng *stats.RNG, b *RouteBatch)
	// RouteBatchR2 batch-routes R2 keys into b.
	RouteBatchR2(keys []join.Key, rng *stats.RNG, b *RouteBatch)
}

// GroupTable lists the workers of each receiver group of one side of a
// scheme: group g's are Recv[Off[g]:Off[g+1]]. Every scheme sends a key to
// one of a few groups (a region scheme's slab, a CI grid row or column, "all"
// for a broadcast key), so the table is small, built once with the scheme and
// read-only afterwards. The zero table is the identity: group g is worker g.
type GroupTable struct {
	Off, Recv []int32
	// Lead[g] is group g's workers when it has one or two, the one repeated
	// when it has one, so the scatter tells the two sizes apart with one
	// compare; {-1, -1} when it has none or more than two, which the scatter
	// walks in Recv.
	Lead []GroupLead
}

// GroupLead is a group's first two workers (see GroupTable.Lead).
type GroupLead struct{ First, Second int32 }

// newGroupTable indexes the groups off and recv list.
func newGroupTable(off, recv []int32) GroupTable {
	lead := make([]GroupLead, len(off)-1)
	for g := range lead {
		switch ws := recv[off[g]:off[g+1]]; len(ws) {
		case 1:
			lead[g] = GroupLead{ws[0], ws[0]}
		case 2:
			lead[g] = GroupLead{ws[0], ws[1]}
		default:
			lead[g] = GroupLead{-1, -1}
		}
	}
	return GroupTable{Off: off, Recv: recv, Lead: lead}
}

// gridTable is the table of n groups of per workers each, group g's i-th
// being g*gs + i*is.
func gridTable(n, per, gs, is int) GroupTable {
	off, recv := make([]int32, 1, n+1), make([]int32, 0, n*per)
	for g := 0; g < n; g++ {
		for i := 0; i < per; i++ {
			recv = append(recv, int32(g*gs+i*is))
		}
		off = append(off, int32(len(recv)))
	}
	return newGroupTable(off, recv)
}

// RouteBatch records the routing decisions for a whole shard of keys — the
// shuffle hot path's unit of work: key i goes to the workers of group
// Groups[i] in Table, and Counts holds the per-worker totals (so callers
// never rescan the record).
type RouteBatch struct {
	Groups []int32    // one receiver group per key
	Table  GroupTable // of the scheme side that routed; shared, read-only
	Counts []int      // per-worker received-tuple totals; len = Workers()
}

// Reset prepares the batch for routing a shard of hint keys into j workers,
// retaining backing storage across shards.
func (b *RouteBatch) Reset(j, hint int) {
	if cap(b.Groups) < hint {
		b.Groups = make([]int32, 0, hint)
	}
	b.Groups, b.Table = b.Groups[:0], GroupTable{}
	if cap(b.Counts) < j {
		b.Counts = make([]int, j)
	} else {
		b.Counts = b.Counts[:j]
		clear(b.Counts)
	}
}

// Receivers returns the workers key i was routed to, in emission order
// (read-only).
func (b *RouteBatch) Receivers(i int) []int32 {
	if b.Table.Off == nil {
		return b.Groups[i : i+1]
	}
	g := b.Groups[i]
	return b.Table.Recv[b.Table.Off[g]:b.Table.Off[g+1]]
}

// maxLocalGroups bounds the groups whose per-shard tallies a route pass
// keeps in a stack array (a groupTally); a side with more — a region axis
// with more than 255 distinct edges — tallies into a heap slice, through the
// same loop.
const maxLocalGroups = 256

// groupTally is a route pass's stack tally, one count per group.
type groupTally [maxLocalGroups]int

// begin sizes the record for n keys routed through t and returns the ids to
// fill beside the tallies to bump per id: Counts itself under the identity
// table, else one zeroed tally per group for fold, in local when it fits.
func (b *RouteBatch) begin(n int, t GroupTable, local *groupTally) (ids []int32, hits []int) {
	if cap(b.Groups) < n {
		b.Groups = make([]int32, n)
	}
	b.Groups, b.Table = b.Groups[:n], t
	if t.Off == nil {
		return b.Groups, b.Counts
	}
	if g := len(t.Off) - 1; g <= len(local) {
		return b.Groups, local[:g]
	}
	return b.Groups, make([]int, len(t.Off)-1)
}

// fold adds the per-group tallies begin handed out to every receiver's count;
// under the identity table they already are the counts.
func (b *RouteBatch) fold(hits []int) {
	if b.Table.Off == nil {
		return
	}
	for g, n := range hits {
		for _, w := range b.Table.Recv[b.Table.Off[g]:b.Table.Off[g+1]] {
			b.Counts[w] += n
		}
	}
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
