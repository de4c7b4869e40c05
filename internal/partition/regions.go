package partition

import (
	"math"
	"slices"

	"ewh/internal/join"
	"ewh/internal/stats"
	"ewh/internal/tiling"
)

// RegionScheme routes tuples by join key to the rectangular regions of a
// partitioning (shared by CSI and CSIO; the two differ only in how the
// regions were computed). A region's key ranges are widened to ±∞ where they
// sit on the sampled extremes of their axis, as the matrix widened the edge
// buckets' candidacy, so a key the sample missed still finds its regions.
//
// A scheme built for a join condition (NewRegionSchemeFor) sends a tuple only
// to the regions where it can join: an R1 key goes to the regions whose row
// range holds it and whose column range meets its joinable range, an R2 key
// to the regions whose column range holds it and meets the joinable range of
// their rows. A key no such region takes (it has no partner anywhere) goes
// where the rectangles alone send it, so no tuple is routed nowhere. A scheme
// without a condition (NewRegionScheme) routes by the rectangles alone.
//
// Either way the regions' key bounds cut each axis into slabs; a key's group
// is its slab — found through a directory, not a search — and the slab's
// workers are the regions that take it.
type RegionScheme struct {
	name     string
	regions  []tiling.Region
	spec     join.Spec // the narrowing condition; Kind "" when none
	reach    [2][]Span // per relation, per region: the keys it takes
	row, col slabAxis
}

// Span is the inclusive key range [Lo, Hi]; Lo > Hi is empty.
type Span struct{ Lo, Hi join.Key }

// Empty reports whether the span holds no key.
func (s Span) Empty() bool { return s.Lo > s.Hi }

var emptySpan = Span{Lo: 1, Hi: 0}

// slabAxis indexes one key axis. Slab s covers [edges[s-1], edges[s]): the
// slab of k is the number of edges <= k.
type slabAxis struct {
	edges []join.Key // slab boundaries, sorted
	table GroupTable // slab → the regions that take it, ascending
	// lo and hi are the sampled key range: the smallest and largest region
	// bound of the axis, both edges. dir[b] is the number of edges e with
	// e < lo or (e - lo) >> shift < b, so the slab of a key in [lo, hi] that
	// falls in bucket b lies in [dir[b], dir[b+1]]: dir[b] outright when no
	// edge shares the bucket, one more when it holds one edge and the key is
	// at or above it. shift is the smallest that keeps the buckets the range
	// spans to dirBuckets or fewer whatever its width; the buckets past them
	// hold no edge. nil below two sampled bounds, where no slab is covered.
	lo, hi join.Key
	dir    *[dirBuckets + 1]int32
	shift  uint
}

// dirBuckets bounds a slab directory: enough that at the plans' J — a few
// edges a region per axis, three per bound where routing for a band adds the
// bound ± β — most buckets hold at most one edge, small enough to stay in
// L1.
const dirBuckets = 1 << 12

// MaxSlabIndex bounds the entries of a region scheme's slab → regions tables,
// both axes together. Regions a planner emits tile a grid, so each covers a
// few slabs; n nested key ranges would cover ~n² and an untrusted table of
// them buy a quadratic index, so decoders refuse a table whose SlabIndexSize
// exceeds the bound before building it.
const MaxSlabIndex = 1 << 22

// NewRegionScheme indexes the regions for routing by their rectangles alone,
// whatever the join. name is reported by Name() ("CSI" or "CSIO").
func NewRegionScheme(name string, regions []tiling.Region) *RegionScheme {
	return newRegionScheme(name, regions, nil, join.Spec{})
}

// NewRegionSchemeFor indexes the regions for routing the join spec
// describes: each tuple goes only to the regions where it can join. It fails
// for a spec join.Spec.Condition refuses.
func NewRegionSchemeFor(name string, regions []tiling.Region, spec join.Spec) (*RegionScheme, error) {
	cond, err := spec.Condition()
	if err != nil {
		return nil, err
	}
	return newRegionScheme(name, regions, cond, spec), nil
}

func newRegionScheme(name string, regions []tiling.Region, cond join.Condition, spec join.Spec) *RegionScheme {
	g := newGeometry(regions, cond)
	return &RegionScheme{name: name, regions: regions, spec: spec, reach: g.reach,
		row: g.axis(0).build(), col: g.axis(1).build()}
}

// SlabIndexSize returns the number of entries the slab → regions tables of
// the scheme NewRegionSchemeFor(name, regions, spec) would hold — a zero
// spec for NewRegionScheme's — without building them. A spec the scheme
// would refuse counts as the zero spec.
func SlabIndexSize(regions []tiling.Region, spec join.Spec) int {
	cond, _ := spec.Condition()
	g := newGeometry(regions, cond)
	return g.axis(0).size() + g.axis(1).size()
}

// geometry is what a scheme's two axes are built from: per axis, the sampled
// region bounds, and per relation the keys each region takes — its widened
// range, or under a condition the part of it where the tuple can join.
type geometry struct {
	bounds [2][]join.Key // per axis, the distinct region bounds, sorted
	wide   [2][]Span     // per axis, each region's widened range
	reach  [2][]Span     // per relation, the keys each region takes
}

func newGeometry(regions []tiling.Region, cond join.Condition) *geometry {
	g := &geometry{}
	for ax, bounds := range [2]func(tiling.Region) (lo, hi join.Key){rowRange, colRange} {
		g.bounds[ax], g.wide[ax] = widen(regions, bounds)
	}
	g.reach = g.wide
	if cond != nil {
		g.reach = [2][]Span{make([]Span, len(regions)), make([]Span, len(regions))}
		for i := range regions {
			g.reach[0][i], g.reach[1][i] = narrow(g.wide[0][i], g.wide[1][i], cond)
		}
	}
	return g
}

func rowRange(r tiling.Region) (lo, hi join.Key) { return r.RowLo, r.RowHi }
func colRange(r tiling.Region) (lo, hi join.Key) { return r.ColLo, r.ColHi }

// widen returns the sorted distinct bounds of regions along an axis and each
// region's inclusive key range there, open to -∞ when its low bound is the
// smallest and to +∞ when its high bound is the largest — the histograms'
// edge buckets, which hold every key beyond the sample. A region whose range
// [lo, hi) is empty takes no key.
func widen(regions []tiling.Region, bounds func(tiling.Region) (lo, hi join.Key)) ([]join.Key, []Span) {
	edges := make([]join.Key, 0, 2*len(regions))
	for _, r := range regions {
		lo, hi := bounds(r)
		edges = append(edges, lo, hi)
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	spans := make([]Span, len(regions))
	for i, r := range regions {
		lo, hi := bounds(r)
		if lo >= hi {
			spans[i] = emptySpan
			continue
		}
		spans[i] = Span{lo, hi - 1}
		if lo == edges[0] {
			spans[i].Lo = math.MinInt64
		}
		if hi == edges[len(edges)-1] {
			spans[i].Hi = math.MaxInt64
		}
	}
	return edges, spans
}

// narrow cuts a region's widened row and column ranges to the keys that can
// join there: the R1 keys a whose joinable range meets the columns, and the
// R2 keys within the joinable ranges of the rows. Both ends of a joinable
// range are monotone in a, so the R1 cut is a bisection per end and the R2
// cut reads the ends at the rows' extremes. A strict inequality's extreme key
// joins nothing, and its empty range is the one break in that monotony, so it
// leaves the rows first.
func narrow(rows, cols Span, cond join.Condition) (r1, r2 Span) {
	joinsNothing := func(a join.Key) bool { lo, hi := cond.JoinableRange(a); return lo > hi }
	switch {
	case rows.Empty() || cols.Empty(), rows.Lo == rows.Hi && joinsNothing(rows.Lo):
		return emptySpan, emptySpan
	case joinsNothing(rows.Lo):
		rows.Lo++
	case joinsNothing(rows.Hi):
		rows.Hi--
	}
	lo, okLo := firstWhere(rows.Lo, rows.Hi, func(a join.Key) bool { _, hi := cond.JoinableRange(a); return hi >= cols.Lo })
	hi, okHi := lastWhere(rows.Lo, rows.Hi, func(a join.Key) bool { lo, _ := cond.JoinableRange(a); return lo <= cols.Hi })
	r1 = emptySpan
	if okLo && okHi {
		r1 = Span{lo, hi}
	}
	jLo, _ := cond.JoinableRange(rows.Lo)
	_, jHi := cond.JoinableRange(rows.Hi)
	return r1, Span{max(cols.Lo, jLo), min(cols.Hi, jHi)}
}

// firstWhere returns the least key of [lo, hi] where ok holds, ok being
// false then true along the range; false when it holds nowhere.
func firstWhere(lo, hi join.Key, ok func(join.Key) bool) (join.Key, bool) {
	if !ok(hi) {
		return 0, false
	}
	for lo < hi {
		if mid := lo + join.Key((uint64(hi)-uint64(lo))/2); ok(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// lastWhere returns the greatest key of [lo, hi] where ok holds, ok being
// true then false along the range; false when it holds nowhere.
func lastWhere(lo, hi join.Key, ok func(join.Key) bool) (join.Key, bool) {
	if !ok(lo) {
		return 0, false
	}
	for lo < hi {
		if mid := hi - join.Key((uint64(hi)-uint64(lo))/2); ok(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, true
}

// axisCover is one axis cut at every bound of the spans the regions take and
// of their widened ranges: slab s covers [cuts[s-1], cuts[s]), slab 0 every
// key below the first cut and the last slab every key at or above the last.
// Every span covers whole slabs, so a slab's receivers are the regions whose
// span covers it — or, for a slab no span covers, those whose widened range
// does.
type axisCover struct {
	sampled []join.Key // the axis's region bounds
	wide    []Span
	reach   []Span
	cuts    []join.Key
	nReach  []int // per slab, the spans covering it
	nWide   []int // per slab, the widened ranges covering it
}

func (g *geometry) axis(ax int) *axisCover {
	c := &axisCover{sampled: g.bounds[ax], wide: g.wide[ax], reach: g.reach[ax]}
	cuts := slices.Clone(c.sampled)
	for _, sp := range c.reach {
		if sp.Empty() {
			continue
		}
		if sp.Lo != math.MinInt64 {
			cuts = append(cuts, sp.Lo)
		}
		if sp.Hi != math.MaxInt64 {
			cuts = append(cuts, sp.Hi+1)
		}
	}
	slices.Sort(cuts)
	c.cuts = slices.Compact(cuts)
	c.nReach, c.nWide = c.count(c.reach), c.count(c.wide)
	return c
}

// slabs returns the first and last slab sp covers (last < first when empty).
func (c *axisCover) slabs(sp Span) (first, last int) {
	if sp.Empty() {
		return 1, 0
	}
	first, _ = slices.BinarySearch(c.cuts, sp.Lo)
	if first < len(c.cuts) && c.cuts[first] == sp.Lo {
		first++
	}
	last, _ = slices.BinarySearch(c.cuts, sp.Hi)
	if last < len(c.cuts) && c.cuts[last] == sp.Hi {
		last++
	}
	return first, last
}

// count returns per slab how many of spans cover it.
func (c *axisCover) count(spans []Span) []int {
	n := make([]int, len(c.cuts)+2)
	for _, sp := range spans {
		if a, b := c.slabs(sp); a <= b {
			n[a]++
			n[b+1]--
		}
	}
	for s := 1; s < len(n); s++ {
		n[s] += n[s-1]
	}
	return n[:len(c.cuts)+1]
}

// receivers returns how many regions slab s routes to, and whether they are
// the spans' (rather than the widened ranges' of a slab no span covers).
func (c *axisCover) receivers(s int) (n int, reached bool) {
	if c.nReach[s] > 0 {
		return c.nReach[s], true
	}
	return c.nWide[s], false
}

// size is the number of table entries the slabs hold before merging.
func (c *axisCover) size() int {
	n := 0
	for s := range c.nReach {
		k, _ := c.receivers(s)
		n += k
	}
	return n
}

// build lists each slab's receivers, merges adjacent slabs with equal lists
// (keeping the sampled extremes as edges, so the directory spans the same
// range whatever the condition) and indexes the result.
func (c *axisCover) build() slabAxis {
	off := make([]int32, len(c.cuts)+2)
	for s := range c.nReach {
		n, _ := c.receivers(s)
		off[s+1] = off[s] + int32(n)
	}
	// unreached[s] is the first slab from s on that no span covers, so the
	// widened ranges visit only those: a table's entries bound the build.
	unreached := make([]int, len(c.nReach)+1)
	unreached[len(c.nReach)] = len(c.nReach)
	for s := len(c.nReach) - 1; s >= 0; s-- {
		unreached[s] = unreached[s+1]
		if c.nReach[s] == 0 {
			unreached[s] = s
		}
	}
	recv := make([]int32, off[len(off)-1])
	next := slices.Clone(off)
	add := func(s, region int) {
		recv[next[s]] = int32(region)
		next[s]++
	}
	for i := range c.reach { // region order keeps every list ascending
		a, b := c.slabs(c.reach[i])
		for s := a; s <= b; s++ {
			add(s, i)
		}
		a, b = c.slabs(c.wide[i])
		for s := unreached[a]; s <= b; s = unreached[s+1] {
			add(s, i)
		}
	}
	x := slabAxis{}
	if len(c.sampled) > 0 {
		x.lo, x.hi = c.sampled[0], c.sampled[len(c.sampled)-1]
	}
	list := func(s int) []int32 { return recv[off[s]:off[s+1]] }
	mOff, mRecv := []int32{0}, append([]int32(nil), list(0)...)
	for s, cut := range c.cuts {
		if slices.Equal(list(s), list(s+1)) && cut != x.lo && cut != x.hi {
			continue
		}
		x.edges = append(x.edges, cut)
		mOff = append(mOff, int32(len(mRecv)))
		mRecv = append(mRecv, list(s+1)...)
	}
	x.table = newGroupTable(append(mOff, int32(len(mRecv))), mRecv)
	if len(c.sampled) < 2 {
		return x
	}
	span := uint64(x.hi) - uint64(x.lo)
	for span>>x.shift >= dirBuckets {
		x.shift++
	}
	x.dir = new([dirBuckets + 1]int32)
	for _, e := range x.edges {
		if e < x.lo {
			x.dir[0]++
		} else if e <= x.hi {
			x.dir[(uint64(e)-uint64(x.lo))>>x.shift+1]++
		}
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

// Spec returns the join condition the scheme routes for, and false for a
// scheme that routes by the rectangles alone.
func (s *RegionScheme) Spec() (join.Spec, bool) { return s.spec, s.spec.Kind != "" }

// Reach returns the keys region r takes of each relation. A key outside
// every region's span — one that joins nowhere — also goes where the widened
// rectangles send it.
func (s *RegionScheme) Reach(r int) (r1, r2 Span) { return s.reach[0][r], s.reach[1][r] }

// RouteBatchR1 implements Scheme.
func (s *RegionScheme) RouteBatchR1(keys []join.Key, _ *stats.RNG, b *RouteBatch) {
	s.row.route(keys, b)
}

// RouteBatchR2 implements Scheme.
func (s *RegionScheme) RouteBatchR2(keys []join.Key, _ *stats.RNG, b *RouteBatch) {
	s.col.route(keys, b)
}

// route records each key's slab: the directory bucket of its top bits names
// the slab outright, or with one comparison when the bucket holds one edge,
// unless more edges share the bucket or the key lies outside the sampled
// range, when a bisection of the bucket's edges — or of them all — resolves
// it. The inner loop takes keys until the first such one; resolving it
// outside that loop leaves the loop's state in registers. Every key outside
// the range is > span above lo unsigned, those below it included: its
// distance down wraps past the span.
func (x *slabAxis) route(keys []join.Key, b *RouteBatch) {
	var local groupTally
	ids, hits := b.begin(len(keys), x.table, &local)
	if x.dir == nil {
		clear(ids) // no slab is covered
		return
	}
	edges, dir, shift := x.edges, x.dir, x.shift&63 // the mask drops the shift's ≥ 64 guard
	lo := x.lo
	span := uint64(x.hi) - uint64(lo) // unsigned: a span up to 2^64-1 does not wrap
	keys = keys[:len(ids)]
	for i := 0; i < len(keys); i++ {
		for ; i < len(keys); i++ {
			d := uint64(keys[i]) - uint64(lo)
			if d > span {
				break
			}
			bkt := d >> shift & (dirBuckets - 1) // a no-op on d <= span; it spares the bounds checks
			s := dir[bkt]
			if n := dir[bkt+1] - s; n != 0 {
				if n > 1 {
					break
				}
				s += int32(le(edges[s], keys[i]))
			}
			ids[i] = s
			hits[s]++
		}
		if i == len(keys) {
			break
		}
		k := keys[i]
		if d := uint64(k) - uint64(lo); d > span {
			ids[i] = edgeSlab(edges, k)
		} else {
			bkt := d >> shift & (dirBuckets - 1)
			ids[i] = edgeSlab(edges[dir[bkt]:dir[bkt+1]], k) + dir[bkt]
		}
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
