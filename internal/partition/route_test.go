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
