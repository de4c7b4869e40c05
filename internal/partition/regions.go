package partition

import (
	"slices"

	"ewh/internal/join"
	"ewh/internal/stats"
	"ewh/internal/tiling"
)

// RegionScheme routes tuples by join key to the rectangular regions of a
// partitioning (shared by CSI and CSIO; the two differ only in how the
// regions were computed). An R1 tuple with key k goes to every region whose
// row key range contains k: the region boundaries cut the key axis into
// slabs, a key's group is its slab — found through a directory, not a search
// — and the slab's workers are the regions covering it. Keys outside the
// sampled key range clamp into the edge slabs, whose candidacy was widened
// to ±∞ at matrix build time, so no output is ever lost.
type RegionScheme struct {
	name     string
	regions  []tiling.Region
	row, col slabAxis
}

// slabAxis indexes one key axis. Slab s covers [edges[s-1], edges[s]): the
// slab of k is the number of edges <= k, k first clamped onto the edges.
type slabAxis struct {
	edges []join.Key // distinct region boundaries, sorted
	table GroupTable // slab → the regions covering it, ascending
	// dir[b] is the number of edges e with (e - edges[0]) >> shift < b, so
	// the slab of a key in bucket b lies in [dir[b], dir[b+1]] and is dir[b]
	// outright when no edge shares the bucket. shift is the smallest that
	// keeps the buckets the edges span to dirBuckets or fewer whatever the
	// key span; the buckets past them hold no edge. nil below two edges,
	// where no slab is covered.
	dir   *[dirBuckets + 1]int32
	shift uint
}

// dirBuckets bounds a slab directory: enough that at the plans' J (≤ 2J
// edges per axis) most buckets hold no edge, small enough to stay in L1.
const dirBuckets = 1 << 10

// MaxSlabIndex bounds the entries of a region scheme's slab → regions tables,
// both axes together. Regions a planner emits tile a grid, so each covers a
// few slabs; n nested key ranges would cover ~n² and an untrusted table of
// them buy a quadratic index, so decoders refuse a table whose SlabIndexSize
// exceeds the bound before building it.
const MaxSlabIndex = 1 << 22

// NewRegionScheme indexes the regions for routing. name is reported by
// Name() ("CSI" or "CSIO").
func NewRegionScheme(name string, regions []tiling.Region) *RegionScheme {
	return &RegionScheme{name: name, regions: regions,
		row: newSlabAxis(regions, rowRange), col: newSlabAxis(regions, colRange)}
}

// SlabIndexSize returns the number of entries NewRegionScheme's slab →
// regions tables would hold for regions, without building them.
func SlabIndexSize(regions []tiling.Region) int {
	n := 0
	for _, bounds := range []func(tiling.Region) (lo, hi join.Key){rowRange, colRange} {
		_, spans := slabSpans(regions, bounds)
		for _, sp := range spans {
			n += max(0, sp[1]+1-sp[0])
		}
	}
	return n
}

func rowRange(r tiling.Region) (lo, hi join.Key) { return r.RowLo, r.RowHi }
func colRange(r tiling.Region) (lo, hi join.Key) { return r.ColLo, r.ColHi }

// slabSpans returns the sorted distinct boundaries of regions along an axis
// and, per region, the slabs first..last its key range covers (last < first
// when it is empty). Keys below the first edge behave as the lowest covered
// slab and keys at or above the last edge as the highest, mirroring the
// edge-bucket clamping of the histograms: route clamps the former onto the
// first edge, and the slab above the last edge repeats the one below it.
func slabSpans(regions []tiling.Region, bounds func(tiling.Region) (lo, hi join.Key)) (edges []join.Key, spans [][2]int) {
	edges = make([]join.Key, 0, 2*len(regions))
	for _, r := range regions {
		lo, hi := bounds(r)
		edges = append(edges, lo, hi)
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	spans = make([][2]int, len(regions))
	for i, r := range regions {
		lo, hi := bounds(r)
		a, _ := slices.BinarySearch(edges, lo)
		b, _ := slices.BinarySearch(edges, hi)
		if a < b && b == len(edges)-1 {
			b++
		}
		spans[i] = [2]int{a + 1, b}
	}
	return edges, spans
}

// newSlabAxis decomposes the key axis into slabs between consecutive distinct
// region boundaries, records flat which regions cover each slab, and builds
// the directory over the edges.
func newSlabAxis(regions []tiling.Region, bounds func(tiling.Region) (lo, hi join.Key)) slabAxis {
	edges, spans := slabSpans(regions, bounds)
	off := make([]int32, len(edges)+2) // slabs: below the first edge, between edges, at/above the last
	for _, sp := range spans {
		for sl := sp[0]; sl <= sp[1]; sl++ {
			off[sl+1]++
		}
	}
	for sl := 1; sl < len(off); sl++ {
		off[sl] += off[sl-1]
	}
	recv := make([]int32, off[len(off)-1])
	next := slices.Clone(off)
	for idx, sp := range spans {
		for sl := sp[0]; sl <= sp[1]; sl++ {
			recv[next[sl]] = int32(idx)
			next[sl]++
		}
	}
	x := slabAxis{edges: edges, table: newGroupTable(off, recv)}
	if len(edges) < 2 {
		return x
	}
	base := uint64(edges[0])
	span := uint64(edges[len(edges)-1]) - base
	for span>>x.shift >= dirBuckets {
		x.shift++
	}
	x.dir = new([dirBuckets + 1]int32)
	for _, e := range edges {
		x.dir[(uint64(e)-base)>>x.shift+1]++
	}
	for b := 1; b < len(x.dir); b++ {
		x.dir[b] += x.dir[b-1]
	}
	return x
}

// Name implements Scheme.
func (s *RegionScheme) Name() string { return s.name }

// Workers implements Scheme.
func (s *RegionScheme) Workers() int { return len(s.regions) }

// Regions returns the underlying regions (read-only).
func (s *RegionScheme) Regions() []tiling.Region { return s.regions }

// RouteBatchR1 implements Scheme.
func (s *RegionScheme) RouteBatchR1(keys []join.Key, _ *stats.RNG, b *RouteBatch) {
	s.row.route(keys, b)
}

// RouteBatchR2 implements Scheme.
func (s *RegionScheme) RouteBatchR2(keys []join.Key, _ *stats.RNG, b *RouteBatch) {
	s.col.route(keys, b)
}

// route records each key's slab: the directory bucket of its top bits names
// the slab outright unless an edge shares the bucket or the key lies outside
// the edges, when the key is clamped onto them and a bisection of the edges
// inside its bucket resolves it. The inner loop takes keys until the first
// such one; resolving it outside that loop leaves the loop's state in
// registers. Every key outside the edges is > span above edges[0] unsigned,
// those below it included: its distance down wraps past the span.
func (x *slabAxis) route(keys []join.Key, b *RouteBatch) {
	var local groupTally
	ids, hits := b.begin(len(keys), x.table, &local)
	if x.dir == nil {
		clear(ids) // no slab is covered
		return
	}
	edges, dir, shift := x.edges, x.dir, x.shift&63 // the mask drops the shift's ≥ 64 guard
	lo, hi := edges[0], edges[len(edges)-1]
	span := uint64(hi) - uint64(lo) // unsigned: a span up to 2^64-1 does not wrap
	keys = keys[:len(ids)]
	for i := 0; i < len(keys); i++ {
		for ; i < len(keys); i++ {
			d := uint64(keys[i]) - uint64(lo)
			if d > span {
				break
			}
			bkt := d >> shift & (dirBuckets - 1) // a no-op on d <= span; it spares the bounds checks
			s := dir[bkt]
			if s != dir[bkt+1] {
				break
			}
			ids[i] = s
			hits[s]++
		}
		if i == len(keys) {
			break
		}
		k := min(max(keys[i], lo), hi)
		bkt := (uint64(k) - uint64(lo)) >> shift & (dirBuckets - 1)
		ids[i] = edgeSlab(edges[dir[bkt]:dir[bkt+1]], k) + dir[bkt]
		hits[ids[i]]++
	}
	b.fold(hits)
}

// edgeSlab returns the number of edges <= k, halving the candidates with a
// conditional move per step: the bisection of a bucket that edges share,
// kept out of route's loop.
//
//go:noinline
func edgeSlab(edges []join.Key, k join.Key) int32 {
	if len(edges) == 0 {
		return 0
	}
	base, n := 0, len(edges)
	for n > 1 {
		half := n >> 1
		base += half & -le(edges[base+half], k)
		n -= half
	}
	return int32(base + le(edges[base], k))
}

// le is 1 when a <= b and 0 otherwise, a flag read rather than a branch.
func le(a, b join.Key) int {
	if a <= b {
		return 1
	}
	return 0
}
