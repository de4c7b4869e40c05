package tiling

import (
	"math"
	"slices"
	"testing"

	"ewh/internal/cost"
	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/matrix"
	"ewh/internal/sample"
	"ewh/internal/stats"
	"ewh/internal/workload"
)

var testModel = cost.Model{Wi: 1, Wo: 0.2}

// buildMS creates a realistic sample matrix from random (optionally skewed)
// relations joined by a band condition.
func buildMS(t testing.TB, n, ns int, beta int64, so int, zipf float64, seed uint64) *matrix.Sample {
	t.Helper()
	r := stats.NewRNG(seed)
	r1 := make([]join.Key, n)
	r2 := make([]join.Key, n)
	var z *stats.Zipf
	if zipf > 0 {
		z = stats.NewZipf(int64(n), zipf)
	}
	for i := range r1 {
		if z != nil {
			r1[i] = z.Draw(r)
			r2[i] = z.Draw(r)
		} else {
			r1[i] = r.Int64n(int64(n))
			r2[i] = r.Int64n(int64(n))
		}
	}
	cond := join.NewBand(beta)
	rh, err := histogram.FromSample(r1, ns)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := histogram.FromSample(r2, ns)
	if err != nil {
		t.Fatal(err)
	}
	out := sample.StreamSample(r1, r2, cond, so, 4, r)
	sm, err := matrix.BuildSample(rh, ch, cond, out.Pairs, out.M, n, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

func TestEvenCuts(t *testing.T) {
	cuts := evenCuts(10, 4)
	if cuts[0] != 0 || cuts[len(cuts)-1] != 10 {
		t.Fatalf("cuts %v must span [0,10]", cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts %v not strictly increasing", cuts)
		}
	}
	if got := evenCuts(3, 8); len(got) != 4 {
		t.Fatalf("evenCuts(3,8) = %v, want 4 entries", got)
	}
}

func TestCoarsenGridValidCuts(t *testing.T) {
	sm := buildMS(t, 4000, 64, 3, 500, 0, 1)
	rowCuts, colCuts := CoarsenGrid(sm, 16, testModel, CoarsenOptions{})
	checkCuts := func(cuts []int, n int) {
		t.Helper()
		if cuts[0] != 0 || cuts[len(cuts)-1] != n {
			t.Fatalf("cuts %v must span [0,%d]", cuts, n)
		}
		if len(cuts)-1 > 16 {
			t.Fatalf("too many bands: %d", len(cuts)-1)
		}
		for i := 1; i < len(cuts); i++ {
			if cuts[i] <= cuts[i-1] {
				t.Fatalf("cuts %v not strictly increasing", cuts)
			}
		}
	}
	checkCuts(rowCuts, sm.Rows)
	checkCuts(colCuts, sm.Cols)
}

func TestCoarsenGridBeatsEvenCutsOnSkew(t *testing.T) {
	sm := buildMS(t, 6000, 96, 2, 800, 0.9, 2)
	even := gridMaxCellWeight(sm, evenCuts(sm.Rows, 12), evenCuts(sm.Cols, 12), testModel)
	rowCuts, colCuts := CoarsenGrid(sm, 12, testModel, CoarsenOptions{})
	opt := gridMaxCellWeight(sm, rowCuts, colCuts, testModel)
	if opt > even*1.05 {
		t.Fatalf("optimized max cell weight %v worse than even cuts %v", opt, even)
	}
}

func TestCoarsenGridSmallMatrixIdentity(t *testing.T) {
	sm := buildMS(t, 500, 8, 2, 100, 0, 3)
	rowCuts, colCuts := CoarsenGrid(sm, 16, testModel, CoarsenOptions{})
	if len(rowCuts)-1 != sm.Rows || len(colCuts)-1 != sm.Cols {
		t.Fatalf("small matrix should keep identity cuts, got %d/%d bands",
			len(rowCuts)-1, len(colCuts)-1)
	}
}

func TestSweepRespectsThreshold(t *testing.T) {
	sm := buildMS(t, 3000, 48, 3, 400, 0.5, 4)
	colCuts := evenCuts(sm.Cols, 8)
	sw := newSweeper(sm, colCuts, false)
	// Find a feasible threshold, then verify the resulting grid obeys it.
	tWeight := sm.TotalWeight(testModel) / 4
	cuts := sw.sweep(testModel, tWeight, 48).cuts
	if cuts == nil {
		t.Skip("threshold infeasible for this seed")
	}
	d := matrix.Coarsen(sm, cuts, colCuts)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if !d.Candidate(i, j) {
				continue
			}
			w := d.Weight(testModel, matrix.Rect{R0: i, C0: j, R1: i, C1: j})
			if w > tWeight*1.0001 {
				t.Fatalf("cell (%d,%d) weight %v exceeds threshold %v", i, j, w, tWeight)
			}
		}
	}
}

func coarsenForTest(t testing.TB, sm *matrix.Sample, nc int) *matrix.Dense {
	t.Helper()
	rowCuts, colCuts := CoarsenGrid(sm, nc, testModel, CoarsenOptions{})
	return matrix.Coarsen(sm, rowCuts, colCuts)
}

func TestBSPAndMonotonicAgree(t *testing.T) {
	// Both solvers compute optimal hierarchical partitionings; their region
	// counts must agree for every delta.
	for seed := uint64(1); seed <= 5; seed++ {
		sm := buildMS(t, 1500, 24, 4, 300, 0.4, seed)
		d := coarsenForTest(t, sm, 10)
		total := d.TotalWeight(testModel)
		for _, frac := range []float64{0.15, 0.3, 0.5, 0.8, 1.0} {
			delta := total * frac
			b := NewBSP(d, testModel).MinRegions(delta, 1000)
			m := NewMonotonicBSP(d, testModel).MinRegions(delta, 1000)
			if b != m {
				t.Fatalf("seed %d delta %.0f: BSP=%d MonotonicBSP=%d", seed, delta, b, m)
			}
		}
	}
}

func TestMonotonicBSPFewerStates(t *testing.T) {
	sm := buildMS(t, 3000, 48, 3, 500, 0.4, 6)
	d := coarsenForTest(t, sm, 16)
	delta := d.TotalWeight(testModel) * 0.2
	b := NewBSP(d, testModel)
	m := NewMonotonicBSP(d, testModel)
	b.MinRegions(delta, 1000)
	m.MinRegions(delta, 1000)
	if m.Stats().States > b.Stats().States {
		t.Fatalf("MonotonicBSP states %d > BSP states %d", m.Stats().States, b.Stats().States)
	}
}

// coverageCheck verifies the partitioning invariants of the §II problem
// statement: every candidate cell covered by exactly one region; regions
// pairwise disjoint.
func coverageCheck(t *testing.T, d *matrix.Dense, regions []Region) {
	t.Helper()
	cover := make(map[[2]int]int)
	for _, reg := range regions {
		for i := reg.Rect.R0; i <= reg.Rect.R1; i++ {
			for j := reg.Rect.C0; j <= reg.Rect.C1; j++ {
				cover[[2]int{i, j}]++
			}
		}
	}
	for cell, n := range cover {
		if n > 1 {
			t.Fatalf("cell %v covered by %d regions", cell, n)
		}
	}
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if d.Candidate(i, j) && cover[[2]int{i, j}] != 1 {
				t.Fatalf("candidate cell (%d,%d) covered %d times", i, j, cover[[2]int{i, j}])
			}
		}
	}
}

func TestRegionalizeInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		sm := buildMS(t, 2500, 40, 3, 400, 0.5, seed+10)
		d := coarsenForTest(t, sm, 16)
		for _, j := range []int{1, 3, 8} {
			regions, err := Regionalize(d, testModel, j, RegionalizeOptions{})
			if err != nil {
				t.Fatalf("seed %d j %d: %v", seed, j, err)
			}
			if len(regions) > j {
				t.Fatalf("seed %d: %d regions for j = %d", seed, len(regions), j)
			}
			coverageCheck(t, d, regions)
		}
	}
}

func TestRegionalizeBaselineMatchesMonotonic(t *testing.T) {
	// Regionalize searches δ with MonotonicBSP; the O(nc⁵) reference solver
	// must tile the same matrix within the δ it settled on, into as few
	// regions, each within δ and together covering every candidate cell.
	sm := buildMS(t, 2000, 32, 3, 300, 0.3, 20)
	d := coarsenForTest(t, sm, 12)
	a, err := Regionalize(d, testModel, 6, RegionalizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	delta := MaxWeight(a)
	ref := NewBSP(d, testModel)
	if n := ref.MinRegions(delta, 6); n > len(a) {
		t.Fatalf("baseline needs %d regions at δ = %v, monotonic %d", n, delta, len(a))
	}
	var b []Region
	for _, r := range ref.Regions() {
		b = append(b, makeRegion(d, testModel, r))
	}
	if wb := MaxWeight(b); wb > delta*1.0001 {
		t.Fatalf("baseline max weight %v above monotonic δ %v", wb, delta)
	}
	coverageCheck(t, d, b)
}

func TestRegionalizeBalances(t *testing.T) {
	// More machines must not increase the max region weight, and the
	// partitioning should beat the single-region weight substantially.
	sm := buildMS(t, 4000, 64, 3, 600, 0.4, 30)
	d := coarsenForTest(t, sm, 32)
	prev := d.TotalWeight(testModel)
	for _, j := range []int{2, 4, 8, 16} {
		regions, err := Regionalize(d, testModel, j, RegionalizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w := MaxWeight(regions)
		if w > prev*1.001 {
			t.Fatalf("j=%d max weight %v worse than j/2's %v", j, w, prev)
		}
		prev = w
	}
	// With 16 machines the max weight should be far below the total.
	if prev > d.TotalWeight(testModel)/3 {
		t.Fatalf("16-way partitioning max weight %v too close to total %v",
			prev, d.TotalWeight(testModel))
	}
}

func TestRegionalizeEmptyMatrix(t *testing.T) {
	// A matrix with no candidate cells yields no regions and no error.
	bounds := []join.Key{0, 10, 20}
	d := matrix.NewDense(2, 2,
		[]float64{0, 0, 0, 0},
		[]float64{5, 5}, []float64{5, 5},
		bounds, bounds,
		[]int{1, 1}, []int{0, 0}) // lo > hi everywhere: no candidates
	regions, err := Regionalize(d, testModel, 4, RegionalizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 0 {
		t.Fatalf("empty matrix produced %d regions", len(regions))
	}
}

func TestRegionalizeDisjointRelations(t *testing.T) {
	// Disjoint relations still plan successfully: the edge-widened corner
	// cells (which absorb keys the sample missed) become the only
	// candidates, yielding a few tiny regions and zero real output.
	r1 := []join.Key{1, 2, 3, 4, 5, 6, 7, 8}
	r2 := []join.Key{1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007}
	rh, _ := histogram.FromSample(r1, 4)
	ch, _ := histogram.FromSample(r2, 4)
	sm, err := matrix.BuildSample(rh, ch, join.NewBand(1), nil, 0, 8, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := matrix.Coarsen(sm, []int{0, 2, 4}, []int{0, 2, 4})
	regions, err := Regionalize(d, testModel, 4, RegionalizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) > 4 {
		t.Fatalf("disjoint join produced %d regions for J=4", len(regions))
	}
	coverageCheck(t, d, regions)
}

func TestRegionalizeErrors(t *testing.T) {
	sm := buildMS(t, 500, 8, 1, 50, 0, 40)
	d := coarsenForTest(t, sm, 4)
	if _, err := Regionalize(d, testModel, 0, RegionalizeOptions{}); err == nil {
		t.Error("j=0 accepted")
	}
}

func TestRegionKeyRangesAligned(t *testing.T) {
	sm := buildMS(t, 2000, 32, 2, 300, 0, 50)
	d := coarsenForTest(t, sm, 16)
	regions, err := Regionalize(d, testModel, 8, RegionalizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if r.RowLo >= r.RowHi || r.ColLo >= r.ColHi {
			t.Fatalf("region %v has empty key range", r)
		}
		if r.RowLo != d.RowBounds[r.Rect.R0] || r.RowHi != d.RowBounds[r.Rect.R1+1] {
			t.Fatalf("region %v key range misaligned with bounds", r)
		}
	}
}

func TestMaxWeight(t *testing.T) {
	if MaxWeight(nil) != 0 {
		t.Error("MaxWeight(nil) != 0")
	}
	regions := []Region{{Weight: 3}, {Weight: 7}, {Weight: 5}}
	if MaxWeight(regions) != 7 {
		t.Error("MaxWeight wrong")
	}
}

func BenchmarkMonotonicBSP(b *testing.B) {
	sm := buildMS(b, 4000, 64, 3, 600, 0.4, 60)
	d := coarsenForTest(b, sm, 32)
	delta := d.TotalWeight(testModel) * 0.15
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMonotonicBSP(d, testModel).MinRegions(delta, 1000)
	}
}

func BenchmarkBaselineBSP(b *testing.B) {
	sm := buildMS(b, 4000, 64, 3, 600, 0.4, 60)
	d := coarsenForTest(b, sm, 32)
	delta := d.TotalWeight(testModel) * 0.15
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewBSP(d, testModel).MinRegions(delta, 1000)
	}
}

// BenchmarkCoarsenGrid times the coarsening stage alone. bcb-200k is the
// adhoc-band planner's MS: BCB x = 200,000 (1M tuples per relation), J = 4,
// so ns = ⌈√(2nJ)⌉ = 2,829 and nc = 2J = 8, input samples of the planner's
// size si = 4·ns·log2(n+2), and the 11,402-pair output sample the planner draws
// for it (2 · its 5,701 candidate cells).
func BenchmarkCoarsenGrid(b *testing.B) {
	for _, s := range []struct {
		name string
		nc   int
		ms   func() *matrix.Sample
	}{
		{"zipf-20k", 16, func() *matrix.Sample { return buildMS(b, 20000, 256, 3, 2000, 0.4, 70) }},
		{"bcb-200k", 8, func() *matrix.Sample {
			r1, r2, cond := workload.BCB(200000, 3, 42)
			n := len(r1)
			ns := int(math.Ceil(math.Sqrt(2 * float64(n) * 4)))
			si := int(4 * float64(ns) * math.Log2(float64(n)+2))
			rng := stats.NewRNG(42)
			rh, err := histogram.FromSample(sample.FixedSize(r1, si, rng), ns)
			if err != nil {
				b.Fatal(err)
			}
			ch, err := histogram.FromSample(sample.FixedSize(r2, si, rng), ns)
			if err != nil {
				b.Fatal(err)
			}
			out := sample.StreamSample(r1, r2, cond, 11402, 4, rng)
			sm, err := matrix.BuildSample(rh, ch, cond, out.Pairs, out.M, n, len(r2), 0)
			if err != nil {
				b.Fatal(err)
			}
			return sm
		}},
	} {
		b.Run(s.name, func(b *testing.B) {
			sm := s.ms()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CoarsenGrid(sm, s.nc, cost.DefaultBand, CoarsenOptions{})
			}
		})
	}
}

func TestRefineCuts(t *testing.T) {
	cuts := refineCuts([]int{0, 100}, 4)
	if len(cuts)-1 != 4 {
		t.Fatalf("refineCuts produced %d bands, want 4: %v", len(cuts)-1, cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not increasing: %v", cuts)
		}
	}
	// Already at capacity: unchanged.
	fixed := []int{0, 1, 2, 3}
	if got := refineCuts(fixed, 3); len(got) != 4 {
		t.Fatalf("full cuts modified: %v", got)
	}
	// Cannot exceed the line count.
	tiny := refineCuts([]int{0, 2}, 10)
	if len(tiny)-1 != 2 {
		t.Fatalf("2-line matrix got %d bands", len(tiny)-1)
	}
}

func TestCoarsenUsesAllBands(t *testing.T) {
	sm := buildMS(t, 4000, 128, 3, 600, 0.8, 99)
	rowCuts, colCuts := CoarsenGrid(sm, 16, testModel, CoarsenOptions{})
	if len(rowCuts)-1 != 16 || len(colCuts)-1 != 16 {
		t.Fatalf("grid %dx%d, want 16x16 (refinement should fill bands)",
			len(rowCuts)-1, len(colCuts)-1)
	}
}

// coarsenSweepingEveryProbe is CoarsenGrid with a bisection that sweeps at
// every probe, as it did before sweeps returned the thresholds they settle.
func coarsenSweepingEveryProbe(sm *matrix.Sample, nc int, model cost.Model) (rowCuts, colCuts []int) {
	optimize := func(otherCuts []int, transpose bool) []int {
		sw := newSweeper(sm, otherCuts, transpose)
		lo, hi := 0.0, sm.TotalWeight(model)+1
		for p := 0; p < coarsenProbes && hi-lo > 1e-9*(hi+1); p++ {
			mid := (lo + hi) / 2
			if sw.sweep(model, mid, nc).cuts != nil {
				hi = mid
			} else {
				lo = mid
			}
		}
		cuts := sw.sweep(model, hi, nc).cuts
		if cuts == nil {
			cuts = []int{0, sw.n}
		}
		return refineCuts(cuts, nc)
	}
	rowCuts, colCuts = evenCuts(sm.Rows, nc), evenCuts(sm.Cols, nc)
	if sm.Rows <= nc && sm.Cols <= nc {
		return rowCuts, colCuts
	}
	best := gridMaxCellWeight(sm, rowCuts, colCuts, model)
	bestRows, bestCols := rowCuts, colCuts
	for range coarsenRounds {
		rowCuts = optimize(colCuts, false)
		colCuts = optimize(rowCuts, true)
		cur := gridMaxCellWeight(sm, rowCuts, colCuts, model)
		if cur < best {
			best, bestRows, bestCols = cur, rowCuts, colCuts
		}
		if cur >= best*0.999 {
			break
		}
	}
	return bestRows, bestCols
}

// TestCoarsenSkipsOnlySettledProbes holds CoarsenGrid, which answers a probe
// inside a settled range without sweeping, to the bisection that sweeps every
// probe: the same cuts, over uniform and skewed matrices and several seeds.
func TestCoarsenSkipsOnlySettledProbes(t *testing.T) {
	for _, c := range []struct {
		n, ns int
		beta  int64
		so    int
		zipf  float64
		nc    int
	}{
		{3000, 48, 3, 400, 0, 8}, {3000, 48, 3, 400, 0.5, 8}, {4000, 128, 3, 600, 0.8, 16},
		{2000, 64, 0, 300, 1.1, 4}, {5000, 200, 10, 900, 0.3, 32},
	} {
		for seed := range uint64(4) {
			sm := buildMS(t, c.n, c.ns, c.beta, c.so, c.zipf, seed)
			for _, model := range []cost.Model{testModel, cost.DefaultBand} {
				gotR, gotC := CoarsenGrid(sm, c.nc, model, CoarsenOptions{})
				wantR, wantC := coarsenSweepingEveryProbe(sm, c.nc, model)
				if !slices.Equal(gotR, wantR) || !slices.Equal(gotC, wantC) {
					t.Fatalf("%+v, seed %d, %+v: cuts %v / %v, sweeping every probe %v / %v",
						c, seed, model, gotR, gotC, wantR, wantC)
				}
			}
		}
	}
}

// TestSweptRangeIsHalfOpen: every threshold in a sweep's range, its lowest
// and the one just below its top, sweeps as the sweep did; the top itself
// keeps a weight the sweep closed on, so it settles a range of its own, and
// the ranges' lookup answers it no more than a threshold outside both.
func TestSweptRangeIsHalfOpen(t *testing.T) {
	sm := buildMS(t, 3000, 48, 3, 400, 0.5, 4)
	sw := newSweeper(sm, evenCuts(sm.Cols, 8), false)
	total := sm.TotalWeight(testModel)
	checked := 0
	for _, frac := range []float64{0.02, 0.05, 0.1, 0.25, 0.5} {
		r := sw.sweep(testModel, total*frac, 8)
		if !(r.from <= total*frac && total*frac < r.to) || math.IsInf(r.to, 1) {
			continue
		}
		for _, at := range []float64{r.from, math.Nextafter(r.to, math.Inf(-1))} {
			if got := sw.sweep(testModel, at, 8); !slices.Equal(got.cuts, r.cuts) || got.from != r.from || got.to != r.to {
				t.Fatalf("threshold %v inside [%v, %v) sweeps to %v over [%v, %v), the range's sweep to %v",
					at, r.from, r.to, got.cuts, got.from, got.to, r.cuts)
			}
		}
		if top := sw.sweep(testModel, r.to, 8); top.from < r.to {
			t.Fatalf("the top %v of [%v, %v) settles [%v, %v)", r.to, r.from, r.to, top.from, top.to)
		}
		known := settled{r}
		if _, ok := known.answer(r.from); !ok {
			t.Fatalf("[%v, %v) does not answer its lowest threshold", r.from, r.to)
		}
		if _, ok := known.answer(r.to); ok {
			t.Fatalf("[%v, %v) answers its top", r.from, r.to)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no sweep settled a bounded range")
	}
}
