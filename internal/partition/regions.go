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
// row key range contains k; since regions are disjoint rectangles aligned to
// the coarsened grid, the routing is a binary search to the grid band plus a
// precomputed band → regions list. Keys outside the sampled key range clamp
// into the edge bands, whose candidacy was widened to ±∞ at matrix build
// time, so no output is ever lost.
type RegionScheme struct {
	name    string
	regions []tiling.Region

	rowEdges []join.Key // distinct region row boundaries, sorted
	colEdges []join.Key
	rowMap   [][]int32 // per row slab: region indices
	colMap   [][]int32
}

// NewRegionScheme indexes the regions for routing. name is reported by
// Name() ("CSI" or "CSIO").
func NewRegionScheme(name string, regions []tiling.Region) *RegionScheme {
	s := &RegionScheme{name: name, regions: regions}
	s.rowEdges, s.rowMap = buildSlabs(regions, func(r tiling.Region) (join.Key, join.Key) { return r.RowLo, r.RowHi })
	s.colEdges, s.colMap = buildSlabs(regions, func(r tiling.Region) (join.Key, join.Key) { return r.ColLo, r.ColHi })
	return s
}

// buildSlabs decomposes the key axis into slabs between consecutive distinct
// region boundaries and records which regions cover each slab.
func buildSlabs(regions []tiling.Region, bounds func(tiling.Region) (join.Key, join.Key)) ([]join.Key, [][]int32) {
	edgeSet := make(map[join.Key]struct{})
	for _, r := range regions {
		lo, hi := bounds(r)
		edgeSet[lo] = struct{}{}
		edgeSet[hi] = struct{}{}
	}
	edges := make([]join.Key, 0, len(edgeSet))
	for e := range edgeSet {
		edges = append(edges, e)
	}
	slices.Sort(edges)
	nSlabs := len(edges) + 1 // below first edge, between edges, at/above last
	slabs := make([][]int32, nSlabs)
	for idx, r := range regions {
		lo, hi := bounds(r)
		a, _ := slices.BinarySearch(edges, lo)
		b, _ := slices.BinarySearch(edges, hi)
		// Region covers slabs (a, b]: slab s covers keys [edges[s-1], edges[s]).
		for sl := a + 1; sl <= b; sl++ {
			slabs[sl] = append(slabs[sl], int32(idx))
		}
	}
	// Clamp: keys below the first edge behave as the lowest covered slab and
	// keys at/above the last edge as the highest covered slab, mirroring the
	// edge-bucket clamping of the histograms.
	if nSlabs >= 3 {
		slabs[0] = slabs[1]
		slabs[nSlabs-1] = slabs[nSlabs-2]
	}
	return edges, slabs
}

// slabOf locates the slab of key k: slab s covers [edges[s-1], edges[s]).
// Edges are distinct, so the first index with edges[i] > k is the insertion
// point of k advanced past an exact hit.
func slabOf(edges []join.Key, k join.Key) int {
	i, found := slices.BinarySearch(edges, k)
	if found {
		i++
	}
	return i
}

// Name implements Scheme.
func (s *RegionScheme) Name() string { return s.name }

// Workers implements Scheme.
func (s *RegionScheme) Workers() int { return len(s.regions) }

// Regions returns the underlying regions (read-only).
func (s *RegionScheme) Regions() []tiling.Region { return s.regions }

// RouteBatchR1 implements Scheme: the slab lists are already []int32, so
// each key's receivers are appended with a single bulk copy.
func (s *RegionScheme) RouteBatchR1(keys []join.Key, _ *stats.RNG, b *RouteBatch) {
	routeBatchSlabs(s.rowEdges, s.rowMap, keys, b)
}

// RouteBatchR2 implements Scheme.
func (s *RegionScheme) RouteBatchR2(keys []join.Key, _ *stats.RNG, b *RouteBatch) {
	routeBatchSlabs(s.colEdges, s.colMap, keys, b)
}

func routeBatchSlabs(edges []join.Key, slabMap [][]int32, keys []join.Key, b *RouteBatch) {
	routes, lens, counts := b.Routes, b.Lens, b.Counts
	for _, k := range keys {
		ids := slabMap[slabOf(edges, k)]
		routes = append(routes, ids...)
		lens = append(lens, int32(len(ids)))
		for _, id := range ids {
			counts[id]++
		}
	}
	b.Routes, b.Lens = routes, lens
}
