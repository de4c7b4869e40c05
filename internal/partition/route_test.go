package partition_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"ewh/internal/core"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/sample"
	"ewh/internal/stats"
	"ewh/internal/tiling"
	"ewh/internal/workload"
)

// bisectSlabs is the reference a RegionScheme's directory is checked against:
// the slab decomposition as one list per slab, and the slab of a key by a
// binary search over all of an axis's edges.
func bisectSlabs(regions []tiling.Region, bounds func(tiling.Region) (join.Key, join.Key)) ([]join.Key, [][]int32) {
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
	if nSlabs >= 3 {
		slabs[0] = slabs[1]
		slabs[nSlabs-1] = slabs[nSlabs-2]
	}
	return edges, slabs
}

func slabOf(edges []join.Key, k join.Key) int {
	i, found := slices.BinarySearch(edges, k)
	if found {
		i++
	}
	return i
}

// checkRegionRoute routes keys on both sides of NewRegionScheme(regions) and
// requires every key's receivers, their order and the per-worker counts to be
// the bisection's.
func checkRegionRoute(t testing.TB, id string, regions []tiling.Region, keys []join.Key) {
	t.Helper()
	s := partition.NewRegionScheme("CSIO", regions)
	for rel, bounds := range []func(tiling.Region) (join.Key, join.Key){
		func(r tiling.Region) (join.Key, join.Key) { return r.RowLo, r.RowHi },
		func(r tiling.Region) (join.Key, join.Key) { return r.ColLo, r.ColHi },
	} {
		edges, slabs := bisectSlabs(regions, bounds)
		var b partition.RouteBatch
		b.Reset(len(regions), len(keys))
		if rel == 0 {
			s.RouteBatchR1(keys, nil, &b)
		} else {
			s.RouteBatchR2(keys, nil, &b)
		}
		if len(b.Groups) != len(keys) {
			t.Fatalf("%s rel %d: %d group ids for %d keys", id, rel+1, len(b.Groups), len(keys))
		}
		counts := make([]int, len(regions))
		for i, k := range keys {
			want := slabs[slabOf(edges, k)]
			if got := b.Receivers(i); !slices.Equal(got, want) {
				t.Fatalf("%s rel %d: key %d routes to %v, bisection says %v (edges %v)", id, rel+1, k, got, want, edges)
			}
			for _, w := range want {
				counts[w]++
			}
		}
		if !slices.Equal(b.Counts, counts) {
			t.Fatalf("%s rel %d: counts %v, bisection says %v", id, rel+1, b.Counts, counts)
		}
	}
}

// probeKeys is the whole domain as far as routing can tell it apart: every
// edge of either axis and its two neighbours, both int64 extremes, and n
// random keys, half over all of int64 and half between the edges.
func probeKeys(regions []tiling.Region, n int, rng *stats.RNG) []join.Key {
	keys := []join.Key{math.MinInt64, math.MaxInt64, 0}
	lo, hi := join.Key(math.MaxInt64), join.Key(math.MinInt64)
	for _, r := range regions {
		for _, e := range []join.Key{r.RowLo, r.RowHi, r.ColLo, r.ColHi} {
			keys = append(keys, e-1, e, e+1) // wrapping at the extremes is one more probe
			lo, hi = min(lo, e), max(hi, e)
		}
	}
	for i := 0; i < n; i++ {
		k := join.Key(rng.Uint64())
		if i%2 == 1 && lo < hi {
			k = lo + join.Key(rng.Uint64()%(uint64(hi)-uint64(lo)))
		}
		keys = append(keys, k)
	}
	return keys
}

func rect(rowLo, rowHi, colLo, colHi join.Key) tiling.Region {
	return tiling.Region{RowLo: rowLo, RowHi: rowHi, ColLo: colLo, ColHi: colHi}
}

// nested returns n regions [i, 2n-i) on both axes: region i covers every slab
// region i+1 does, so the slab tables hold ~n² entries.
func nested(n int) []tiling.Region {
	regions := make([]tiling.Region, n)
	for i := range regions {
		lo, hi := join.Key(i), join.Key(2*n-i)
		regions[i] = rect(lo, hi, lo, hi)
	}
	return regions
}

// planned returns the regions PlanCSIO tiles the named workload into.
func planned(t testing.TB, name string, n, j int) []tiling.Region {
	t.Helper()
	var r1, r2 []join.Key
	var cond join.Condition = join.Equi{}
	switch name {
	case "bcb":
		r1, r2, cond = workload.BCB(n/5, 3, 42)
	case "zipf":
		r1, r2 = workload.Zipfian(n, int64(n), 0.6, 42), workload.Zipfian(n, int64(n), 0.6, 43)
	case "uniform":
		r1, r2 = workload.Uniform(n, int64(n), 42), workload.Uniform(n, int64(n), 43)
	}
	plan, err := core.PlanCSIO(r1, r2, cond, core.Options{J: j, Seed: 42, DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	return plan.Scheme.(*partition.RegionScheme).Regions()
}

func TestRegionRouteMatchesBisection(t *testing.T) {
	rng := stats.NewRNG(30)
	sets := map[string][]tiling.Region{
		"one region":       {rect(10, 20, -5, 5)},
		"nested":           nested(40),
		"edges at extreme": {rect(math.MinInt64, 0, math.MinInt64, math.MaxInt64), rect(0, math.MaxInt64, -7, 7)},
		"span 2^64-1":      {rect(math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64)},
		"outlier high":     {rect(0, 100, 0, 50), rect(100, 200, 50, 1<<61), rect(200, 1<<61, 0, 50)},
		"outlier low":      {rect(-1<<61, 100, 0, 50), rect(100, 200, -1<<61, 0), rect(200, 300, 50, 90)},
		"empty ranges":     {rect(5, 5, 9, 1), rect(1, 9, 2, 3)},
		"no regions":       nil,
	}
	for i := 0; i < 20; i++ { // overlapping at random, tight and sparse
		regions := make([]tiling.Region, 1+rng.Intn(40))
		width := int64(1) << (4 + 3*uint(i%8))
		for r := range regions {
			rowLo, colLo := rng.Int64n(width)-width/2, rng.Int64n(width)-width/2
			regions[r] = rect(rowLo, rowLo+1+rng.Int64n(width/4), colLo, colLo+1+rng.Int64n(width/4))
		}
		sets[fmt.Sprintf("overlapping %d", i)] = regions
	}
	for _, w := range []string{"bcb", "zipf", "uniform"} {
		for _, j := range []int{1, 4, 7, 16, 64} {
			sets[fmt.Sprintf("PlanCSIO %s J=%d", w, j)] = planned(t, w, 20000, j)
		}
	}
	for id, regions := range sets {
		checkRegionRoute(t, id, regions, probeKeys(regions, 10000, rng))
	}
}

// FuzzRegionRoute is the same differential check over arbitrary bytes: 64-bit
// words become a count, that many regions (four words each, empty and
// inverted ranges included) and the probe keys.
func FuzzRegionRoute(f *testing.F) {
	for _, regions := range [][]tiling.Region{nested(4), {rect(math.MinInt64, math.MaxInt64, 0, 1<<61)}} {
		seed := binary.LittleEndian.AppendUint64(nil, uint64(len(regions)))
		for _, r := range regions {
			for _, e := range []join.Key{r.RowLo, r.RowHi, r.ColLo, r.ColHi} {
				seed = binary.LittleEndian.AppendUint64(seed, uint64(e))
			}
		}
		f.Add(binary.LittleEndian.AppendUint64(seed, 3))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*256 {
			t.Skip()
		}
		vals := make([]join.Key, len(data)/8)
		for i := range vals {
			vals[i] = join.Key(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(vals) == 0 {
			return
		}
		n := int(uint64(vals[0]) % uint64((len(vals)+3)/4))
		regions := make([]tiling.Region, n)
		for i := range regions {
			regions[i] = rect(vals[1+4*i], vals[2+4*i], vals[3+4*i], vals[4+4*i])
		}
		checkRegionRoute(t, "fuzz", regions, append(probeKeys(regions, 0, nil), vals[1+4*n:]...))
	})
}

// routedFor is the scheme over regions that routes for spec.
func routedFor(b *testing.B, regions []tiling.Region, spec join.Spec) partition.Scheme {
	s, err := partition.NewRegionSchemeFor("CSIO", regions, spec)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkRoutePass times the route pass alone — both relations of a join
// through one scheme, 200k keys each, as the shuffle's mappers run it — and
// reports it per tuple beside the bytes of route record a tuple leaves.
func BenchmarkRoutePass(b *testing.B) {
	const n = 200_000
	hash := func(heavy []join.Key) partition.Scheme {
		h, err := partition.NewHash(4, heavy)
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	zipf1, zipf2 := workload.Zipfian(n, n, 0.6, 42), workload.Zipfian(n, n, 0.6, 43)
	bcb1, bcb2, _ := workload.BCB(n/5, 3, 42)
	uni1, uni2 := workload.Uniform(n, 4*n, 42), workload.Uniform(n, 4*n, 43)
	// An outlier edge stretches each directory bucket to 2^51 keys, so every
	// key shares the first bucket with all sixteen of the other edges.
	stripes := make([]tiling.Region, 16)
	for i := range stripes {
		stripes[i] = rect(join.Key(100*i), join.Key(100*i+100), join.Key(100*i), join.Key(100*i+100))
	}
	stripes[15].RowHi, stripes[15].ColHi = 1<<61, 1<<61
	hot := partition.NewRegionScheme("CSIO", stripes)
	hot1, hot2 := workload.Uniform(n, 1600, 42), workload.Uniform(n, 1600, 43)
	for _, c := range []struct {
		name   string
		s      partition.Scheme
		r1, r2 []join.Key
	}{
		{"Hash", hash(nil), zipf1, zipf2},
		{"Hash+heavy", hash(partition.DetectHeavyKeys(zipf1, 0.001)), zipf1, zipf2},
		{"CI-J4", partition.NewCI(4), uni1, uni2},
		{"CI-J64", partition.NewCI(64), uni1, uni2},
		{"CSIO-bcb-J4", partition.NewRegionScheme("CSIO", planned(b, "bcb", n, 4)), bcb1, bcb2},
		{"CSIO-bcb-J64", partition.NewRegionScheme("CSIO", planned(b, "bcb", n, 64)), bcb1, bcb2},
		{"CSIO-zipf-J4", partition.NewRegionScheme("CSIO", planned(b, "zipf", n, 4)), zipf1, zipf2},
		{"CSIO-bcb-J4-band", routedFor(b, planned(b, "bcb", n, 4), join.Spec{Kind: "band", Beta: 3}), bcb1, bcb2},
		{"CSIO-zipf-J4-equi", routedFor(b, planned(b, "zipf", n, 4), join.Spec{Kind: "equi"}), zipf1, zipf2},
		{"hot-edge-bucket", hot, hot1, hot2},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := stats.NewRNG(1)
			var rb partition.RouteBatch
			record := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb.Reset(c.s.Workers(), len(c.r1))
				c.s.RouteBatchR1(c.r1, rng, &rb)
				record = 4 * len(rb.Groups)
				rb.Reset(c.s.Workers(), len(c.r2))
				c.s.RouteBatchR2(c.r2, rng, &rb)
				record += 4 * len(rb.Groups)
			}
			tuples := float64(len(c.r1) + len(c.r2))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tuples, "ns/tuple")
			b.ReportMetric(float64(record)/tuples, "B/tuple")
		})
	}
}

// narrowCase is one draw of FuzzNarrowedRoute: a condition, regions tiling a
// grid of row × column cuts exactly once (each covering one rectangle of
// cells), and probe keys.
type narrowCase struct {
	cond    join.Condition
	spec    join.Spec
	regions []tiling.Region
	keys    []join.Key
}

// drawNarrowCase turns words into a narrowCase. Word 0 packs the condition
// (bits 0–2: equality, a band, the four inequality ops, a composite spec)
// and the counts of row cuts (bits 3–5, plus 2), column cuts (6–8, plus 2)
// and splits (9–12); narrowHead packs it. Word 1 is a band's β, shifted
// right by its own low bits so that both small widths and widths near the
// int64 edge come up, or a composite spec's widths. Then come the row cuts,
// the column cuts, one word per guillotine split, and the rest are probe
// keys. A composite condition's cuts and probes are encoded (primary,
// secondary) pairs.
func drawNarrowCase(vals []join.Key) (narrowCase, bool) {
	if len(vals) < 2 {
		return narrowCase{}, false
	}
	w0, w1 := uint64(vals[0]), uint64(vals[1])
	vals = vals[2:]
	var c narrowCase
	enc := func(k join.Key) join.Key { return k }
	switch w0 & 7 {
	case 0:
		c.cond = join.Equi{}
	case 1:
		c.cond = join.NewBand(int64(w1 >> 1 >> (w1 & 63)))
	case 2, 3, 4, 5:
		c.cond = join.Inequality{Op: join.Op(w0&7 - 2)}
	default:
		cs := join.CompositeSpec{SecondaryMax: int64(w1 % 16), Beta: int64(w1 >> 4 % 8)}
		c.cond = cs.Condition()
		enc = func(k join.Key) join.Key {
			return cs.Encode(int64(int8(k)), int64(uint64(k)>>8%uint64(cs.SecondaryMax+1)))
		}
	}
	spec, err := join.SpecOf(c.cond)
	if err != nil {
		return narrowCase{}, false
	}
	c.spec = spec
	take := func(n int) []join.Key {
		n = min(n, len(vals))
		out := make([]join.Key, n)
		for i := range out {
			out[i] = enc(vals[i])
		}
		vals = vals[n:]
		return out
	}
	cuts := func(n int) []join.Key {
		cs := take(n)
		slices.Sort(cs)
		return slices.Compact(cs)
	}
	rows, cols := cuts(2+int(w0>>3&7)), cuts(2+int(w0>>6&7))
	if len(rows) < 2 || len(cols) < 2 {
		return narrowCase{}, false
	}
	// Guillotine splits of the cell grid, each word choosing the rectangle,
	// the axis and the cut; a rectangle one cell wide along the axis stays.
	rects := [][4]int{{0, len(rows) - 1, 0, len(cols) - 1}}
	for _, w := range take(int(w0 >> 9 & 15)) {
		u := uint64(w)
		i := int(u % uint64(len(rects)))
		r := rects[i]
		ax := int(u >> 8 & 1)
		lo, hi := r[2*ax], r[2*ax+1]
		if hi-lo < 2 {
			continue
		}
		at := lo + 1 + int(u>>9%uint64(hi-lo-1))
		a, b := r, r
		a[2*ax+1], b[2*ax] = at, at
		rects[i] = a
		rects = append(rects, b)
	}
	for _, r := range rects {
		c.regions = append(c.regions, rect(rows[r[0]], rows[r[1]], cols[r[2]], cols[r[3]]))
	}
	c.keys = append(c.keys, math.MinInt64, math.MinInt64+1, math.MaxInt64-1, math.MaxInt64, 0)
	for _, e := range append(slices.Clone(rows), cols...) {
		for _, d := range []join.Key{-1, 0, 1} {
			c.keys = append(c.keys, e+d)
		}
		lo, hi := c.cond.JoinableRange(e)
		c.keys = append(c.keys, lo-1, lo, hi, hi+1)
	}
	c.keys = append(c.keys, take(64)...)
	return c, true
}

// wideReceivers is the oracle's routing by the rectangles alone: the regions
// whose range, widened to ±∞ at the axis's sampled extremes, holds k.
func wideReceivers(regions []tiling.Region, bounds func(tiling.Region) (join.Key, join.Key), k join.Key) []int32 {
	first, last := join.Key(math.MaxInt64), join.Key(math.MinInt64)
	for _, r := range regions {
		lo, hi := bounds(r)
		first, last = min(first, lo, hi), max(last, lo, hi)
	}
	var out []int32
	for i, r := range regions {
		lo, hi := bounds(r)
		if lo < hi && (k >= lo || lo == first) && (k < hi || hi == last) {
			out = append(out, int32(i))
		}
	}
	return out
}

// checkNarrowedRoute routes every key on both sides of the scheme narrowed
// for c.cond and checks, against the widened rectangles: each key's receivers
// are a non-empty subset of those the rectangles alone give it, the batch's
// counts are its receivers', and every joinable pair meets in exactly one
// region.
func checkNarrowedRoute(t testing.TB, id string, c narrowCase) {
	t.Helper()
	s, err := partition.NewRegionSchemeFor("CSIO", c.regions, c.spec)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var recv [2][][]int32
	for rel, bounds := range []func(tiling.Region) (join.Key, join.Key){
		func(r tiling.Region) (join.Key, join.Key) { return r.RowLo, r.RowHi },
		func(r tiling.Region) (join.Key, join.Key) { return r.ColLo, r.ColHi },
	} {
		var b partition.RouteBatch
		b.Reset(len(c.regions), len(c.keys))
		if rel == 0 {
			s.RouteBatchR1(c.keys, nil, &b)
		} else {
			s.RouteBatchR2(c.keys, nil, &b)
		}
		counts := make([]int, len(c.regions))
		for i, k := range c.keys {
			got, wide := b.Receivers(i), wideReceivers(c.regions, bounds, k)
			if len(got) == 0 && len(wide) > 0 {
				t.Fatalf("%s rel %d (%v): key %d routes nowhere, the rectangles send it to %v", id, rel+1, c.cond, k, wide)
			}
			for _, w := range got {
				if !slices.Contains(wide, w) {
					t.Fatalf("%s rel %d (%v): key %d routes to %v, outside the rectangles' %v", id, rel+1, c.cond, k, got, wide)
				}
				counts[w]++
			}
			recv[rel] = append(recv[rel], slices.Clone(got))
		}
		if !slices.Equal(b.Counts, counts) {
			t.Fatalf("%s rel %d: counts %v, receivers say %v", id, rel+1, b.Counts, counts)
		}
	}
	for i, k1 := range c.keys {
		lo, hi := c.cond.JoinableRange(k1)
		for j, k2 := range c.keys {
			if k2 < lo || k2 > hi {
				continue
			}
			common := 0
			for _, w := range recv[0][i] {
				if slices.Contains(recv[1][j], w) {
					common++
				}
			}
			if common != 1 {
				t.Fatalf("%s (%v): joinable pair (%d, %d) meets in %d regions: R1 to %v, R2 to %v (regions %v)",
					id, c.cond, k1, k2, common, recv[0][i], recv[1][j], c.regions)
			}
		}
	}
}

// narrowHead packs drawNarrowCase's word 0.
func narrowHead(kind, rows, cols, splits int) join.Key {
	return join.Key(kind | (rows-2)<<3 | (cols-2)<<6 | splits<<9)
}

// narrowSeeds are FuzzNarrowedRoute's committed starting points: a grid per
// condition kind, a band β at the int64 edge, relations whose key ranges
// lie apart, so that an R2 key far above the columns' sampled range joins
// rows that an edge key's would not, and a grid per inequality whose cuts
// and probes lie past ±2^61 and at the int64 extremes.
func narrowSeeds() [][]join.Key {
	grid := []join.Key{-100, 0, 50, 100, 200, -10, 20, 30, 120, 3584, // cuts
		0, 1 << 8, 1 | 2<<9, 3 | 1<<8 | 1<<9, 2, 5 | 1<<8, // splits
		-101, 49, 51, 119, 121, 1 << 40} // probes
	var seeds [][]join.Key
	for kind := 0; kind < 7; kind++ {
		seeds = append(seeds, append([]join.Key{narrowHead(kind, 5, 5, 6), 2<<7 | 6}, grid...))
	}
	seeds = append(seeds, append([]join.Key{narrowHead(1, 5, 5, 6), -64}, grid...))
	apart := []join.Key{narrowHead(1, 3, 3, 3), 950<<7 | 6,
		1000, 1500, 2000, 0, 50, 100, // cuts
		0, 1 << 8, 1 | 1<<8, // splits
		1550, 600, 1200, 99} // probes
	seeds = append(seeds, apart)
	far := []join.Key{math.MinInt64/4 - 1, -5, 0, math.MaxInt64/4 + 1, math.MaxInt64 - 1, // cuts
		math.MinInt64 + 1, math.MinInt64 / 2, 5, math.MaxInt64 / 4, math.MaxInt64 / 2,
		0, 1 << 8, 1 | 2<<9, // splits
		math.MaxInt64, math.MinInt64, math.MaxInt64/4 + 2, math.MinInt64/4 - 2} // probes
	for kind := 2; kind <= 5; kind++ {
		seeds = append(seeds, append([]join.Key{narrowHead(kind, 5, 5, 3), 0}, far...))
	}
	return seeds
}

func TestNarrowedRouteSeeds(t *testing.T) {
	for i, vals := range narrowSeeds() {
		c, ok := drawNarrowCase(vals)
		if !ok {
			t.Fatalf("seed %d draws no case", i)
		}
		checkNarrowedRoute(t, fmt.Sprintf("seed %d", i), c)
	}
}

// FuzzNarrowedRoute is the differential check of routing narrowed by the
// join condition over arbitrary bytes: 64-bit words become a condition, a
// tiling and probe keys (drawNarrowCase), which checkNarrowedRoute holds to
// the brute-force oracle over the widened rectangles.
func FuzzNarrowedRoute(f *testing.F) {
	for _, vals := range narrowSeeds() {
		var seed []byte
		for _, v := range vals {
			seed = binary.LittleEndian.AppendUint64(seed, uint64(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*128 {
			t.Skip()
		}
		vals := make([]join.Key, len(data)/8)
		for i := range vals {
			vals[i] = join.Key(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if c, ok := drawNarrowCase(vals); ok {
			checkNarrowedRoute(t, "fuzz", c)
		}
	})
}

// foldCellKeys generates the keys of one distribution of core's fold table
// (TestPlansByteIdenticalAcrossTheFold).
func foldCellKeys(dist string, n int, seed uint64) []join.Key {
	switch dist {
	case "uniform":
		return workload.Uniform(n, int64(n), seed)
	case "zipf":
		return workload.Zipfian(n, int64(n), 0.8, seed)
	default:
		return workload.X(n/5, stats.NewRNG(seed))
	}
}

// parentFastPath models the route pass of the rectangles alone as it was
// before routing followed the condition: a directory of 1024 buckets over the
// axis's distinct region bounds, sending to a bisection every key outside
// them or in a bucket that holds one. It returns the range the directory
// spans and how many of keys leave its fast path.
func parentFastPath(regions []tiling.Region, rel int, keys []join.Key) (lo, hi join.Key, off int) {
	var edges []join.Key
	for _, r := range regions {
		if rel == 1 {
			edges = append(edges, r.RowLo, r.RowHi)
		} else {
			edges = append(edges, r.ColLo, r.ColHi)
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	lo, hi = edges[0], edges[len(edges)-1]
	span, shift := uint64(hi)-uint64(lo), 0
	for span>>shift >= 1024 {
		shift++
	}
	held := make(map[uint64]bool)
	for _, e := range edges {
		held[(uint64(e)-uint64(lo))>>shift] = true
	}
	for _, k := range keys {
		if d := uint64(k) - uint64(lo); d > span || held[d>>shift] {
			off++
		}
	}
	return lo, hi, off
}

// TestNarrowedRouteKeepsTheFastPath pins that routing for the condition costs
// the route pass no more bisections than routing by the rectangles did: over
// every plan of the fold table's cells, the benchmark's band and equi plans,
// and a stream's plans before and after its windows flip, each axis's
// directory spans the sampled range the rectangles' did, and sends no larger
// share of the relation's keys to a bisection.
func TestNarrowedRouteKeepsTheFastPath(t *testing.T) {
	type plan struct {
		id     string
		scheme partition.Scheme
		r1, r2 []join.Key
	}
	var plans []plan
	for _, c := range []struct {
		name string
		cond join.Condition
	}{
		{"equi", join.Equi{}}, {"band0", join.NewBand(0)}, {"band3", join.NewBand(3)},
		{"lt", join.Inequality{Op: join.Less}}, {"ge", join.Inequality{Op: join.GreaterEq}},
	} {
		for _, dist := range []string{"uniform", "zipf", "bcb"} {
			for _, sz := range [][2]int{{3000, 3000}, {300, 6000}, {6000, 300}} {
				r1, r2 := foldCellKeys(dist, sz[0], 101), foldCellKeys(dist, sz[1], 202)
				below := sample.Summarize(r1, 128, 64, stats.NewRNG(5))
				above := sample.Summarize(r1, 8192, 64, stats.NewRNG(5))
				for _, j := range []int{1, 4, 7} {
					opts := core.Options{J: j, Seed: 11, DisableFallback: c.name == "ge"}
					adapt := opts
					adapt.AdaptNS = true
					for entry, build := range map[string]func() (*core.Plan, error){
						"csio":        func() (*core.Plan, error) { return core.PlanCSIO(r1, r2, c.cond, opts) },
						"csio+adapt":  func() (*core.Plan, error) { return core.PlanCSIO(r1, r2, c.cond, adapt) },
						"summary<pop": func() (*core.Plan, error) { return core.PlanCSIOFromSummary(below, r2, c.cond, opts) },
						"summary>pop": func() (*core.Plan, error) { return core.PlanCSIOFromSummary(above, r2, c.cond, opts) },
						"csi":         func() (*core.Plan, error) { return core.PlanCSI(r1, r2, c.cond, 64, opts) },
					} {
						p, err := build()
						if err != nil {
							t.Fatal(err)
						}
						id := fmt.Sprintf("%s/%s/%d-%d/J%d %s", c.name, dist, sz[0], sz[1], j, entry)
						plans = append(plans, plan{id, p.Scheme, r1, r2})
					}
				}
			}
		}
	}
	// The benchmark's band plan (adhoc-band, fleet-band) and its equi plan
	// over Zipf keys (replay-equi-zipf).
	bcb1, bcb2, bcb := workload.BCB(200_000, 3, 42)
	zipf1, zipf2 := workload.Zipfian(2_000_000, 2_000_000, 0.6, 42), workload.Zipfian(2_000_000, 2_000_000, 0.6, 43)
	for _, c := range []struct {
		id     string
		r1, r2 []join.Key
		cond   join.Condition
	}{{"adhoc-band", bcb1, bcb2, bcb}, {"replay-equi-zipf", zipf1, zipf2, join.Equi{}}} {
		p, err := core.PlanCSIO(c.r1, c.r2, c.cond, core.Options{J: 4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan{c.id, p.Scheme, c.r1, c.r2})
	}
	// A stream's epochs: the window distribution, wide and then collapsed
	// into a narrow range, against a static base (relation 2).
	rng := stats.NewRNG(41)
	base := workload.Uniform(40000, 1_000_000, 1)
	for i, span := range []int64{1_000_000, 20_000} {
		window := make([]join.Key, 3000)
		for k := range window {
			window[k] = rng.Int64n(span)
		}
		sum := sample.Summarize(window, 512, 32, stats.NewRNG(9))
		sum.Count *= 8
		p, err := core.PlanCSIOFromSummary(sum, base, join.NewBand(25), core.Options{J: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan{fmt.Sprintf("stream epoch %d", i+1), p.Scheme, window, base})
	}
	for _, p := range plans {
		rs, ok := p.scheme.(*partition.RegionScheme)
		if !ok {
			continue // the §VI-E fallback's CI plan
		}
		for rel, keys := range [][]join.Key{p.r1, p.r2} {
			lo, hi, ok := partition.DirectoryRange(rs, rel+1)
			plo, phi, poff := parentFastPath(rs.Regions(), rel+1, keys)
			if lo != plo || hi != phi || !ok {
				t.Errorf("%s rel %d: directory spans [%d, %d] (%v), the rectangles' [%d, %d]", p.id, rel+1, lo, hi, ok, plo, phi)
			}
			if off := partition.OffFastPath(rs, rel+1, keys); off > poff {
				t.Errorf("%s rel %d: %d of %d keys leave the fast path, %d by the rectangles", p.id, rel+1, off, len(keys), poff)
			}
		}
	}
}
