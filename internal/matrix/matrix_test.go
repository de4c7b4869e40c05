package matrix

import (
	"testing"

	"ewh/internal/cost"
	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/sample"
	"ewh/internal/stats"
)

// buildTestSample creates a realistic MS from random relations.
func buildTestSample(t *testing.T, n, ns int, beta int64, so int, seed uint64) (*Sample, []join.Key, []join.Key, join.Condition) {
	t.Helper()
	r := stats.NewRNG(seed)
	r1 := make([]join.Key, n)
	r2 := make([]join.Key, n)
	for i := range r1 {
		r1[i] = r.Int64n(int64(n))
		r2[i] = r.Int64n(int64(n))
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
	sm, err := BuildSample(rh, ch, cond, out.Pairs, out.M, n, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sm, r1, r2, cond
}

func TestBuildSampleBasic(t *testing.T) {
	sm, _, _, _ := buildTestSample(t, 2000, 16, 3, 200, 1)
	if sm.Rows != 16 || sm.Cols != 16 {
		t.Fatalf("dims %dx%d, want 16x16", sm.Rows, sm.Cols)
	}
	if sm.Scale <= 0 {
		t.Fatal("scale not set despite output sample")
	}
	// Total hits must equal the sample size.
	if got := sm.Hits(0, sm.Rows-1, 0, sm.Cols-1); got != int64(sm.SampleSize) {
		t.Fatalf("total hits %d, want %d", got, sm.SampleSize)
	}
	// Total output estimate must equal M (scale * so = M by construction).
	tot := sm.Output(0, sm.Rows-1, 0, sm.Cols-1)
	if tot < float64(sm.M)*0.999 || tot > float64(sm.M)*1.001 {
		t.Fatalf("total output %v, want ~%d", tot, sm.M)
	}
}

func TestBuildSampleErrors(t *testing.T) {
	rh, _ := histogram.FromSample([]join.Key{1, 2, 3, 4}, 2)
	if _, err := BuildSample(rh, rh, join.Equi{}, [][2]join.Key{{1, 1}}, 0, 4, 4, 0); err == nil {
		t.Error("pairs with m=0 accepted")
	}
}

func TestCandidateSpansMonotone(t *testing.T) {
	sm, _, _, _ := buildTestSample(t, 3000, 32, 5, 300, 2)
	for i := 1; i < sm.Rows; i++ {
		if sm.CandLo[i] < sm.CandLo[i-1] || sm.CandHi[i] < sm.CandHi[i-1] {
			t.Fatalf("candidate spans not monotone at row %d", i)
		}
	}
}

func TestCandidateSpansNoFalseNegatives(t *testing.T) {
	// Every output-sample hit must land in a candidate cell.
	sm, _, _, _ := buildTestSample(t, 2000, 16, 2, 400, 3)
	for i := 0; i < sm.Rows; i++ {
		cols, _ := sm.RowHits(i)
		for _, c := range cols {
			if int(c) < sm.CandLo[i] || int(c) > sm.CandHi[i] {
				t.Fatalf("hit at (%d,%d) outside candidate span [%d,%d]",
					i, c, sm.CandLo[i], sm.CandHi[i])
			}
		}
	}
}

func TestEnforceMonotoneSpansPrefixSuffix(t *testing.T) {
	lo := []int{1, 1, 3, 5, 1, 1}
	hi := []int{0, 0, 4, 7, 0, 0}
	enforceMonotoneSpans(lo, hi)
	for i := 1; i < len(lo); i++ {
		if lo[i] < lo[i-1] || hi[i] < hi[i-1] {
			t.Fatalf("spans not monotone after patch: lo=%v hi=%v", lo, hi)
		}
	}
	// Patched empty rows stay empty.
	for _, i := range []int{0, 1, 4, 5} {
		if lo[i] <= hi[i] {
			t.Errorf("row %d became non-empty: [%d,%d]", i, lo[i], hi[i])
		}
	}
	// Non-empty rows unchanged.
	if lo[2] != 3 || hi[2] != 4 || lo[3] != 5 || hi[3] != 7 {
		t.Errorf("non-empty rows mutated: lo=%v hi=%v", lo, hi)
	}
}

func TestSampleInputWeight(t *testing.T) {
	sm, _, _, _ := buildTestSample(t, 1600, 16, 1, 100, 4)
	got := sm.Input(0, 3, 0, 7)
	want := 4*sm.RowUnit + 8*sm.ColUnit
	if got != want {
		t.Fatalf("Input = %v, want %v", got, want)
	}
}

func TestCandCountUniformMode(t *testing.T) {
	// CSI mode: unitCand only, no pairs.
	keys := []join.Key{0, 10, 20, 30, 40, 50, 60, 70}
	rh, _ := histogram.FromSample(keys, 8)
	ch, _ := histogram.FromSample(keys, 8)
	sm, err := BuildSample(rh, ch, join.NewBand(5), nil, 0, 8, 8, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Scale != 0 || sm.UnitCand != 2.0 {
		t.Fatalf("scale=%v unitCand=%v", sm.Scale, sm.UnitCand)
	}
	// Band 5 over buckets of width 10: each row is candidate with its own
	// column and adjacent ones that overlap within 5.
	cc := sm.CandCount(0, sm.Rows-1, 0, sm.Cols-1)
	if cc <= 0 {
		t.Fatal("no candidates found")
	}
	if got := sm.Output(0, sm.Rows-1, 0, sm.Cols-1); got != 2.0*float64(cc) {
		t.Fatalf("uniform output %v, want %v", got, 2.0*float64(cc))
	}
}

func TestDenseCoarsenPreservesTotals(t *testing.T) {
	sm, _, _, _ := buildTestSample(t, 2000, 32, 3, 500, 5)
	rowCuts := []int{0, 8, 16, 24, 32}
	colCuts := []int{0, 10, 20, 32}
	d := Coarsen(sm, rowCuts, colCuts)
	if d.Rows != 4 || d.Cols != 3 {
		t.Fatalf("dims %dx%d", d.Rows, d.Cols)
	}
	model := cost.Model{Wi: 1, Wo: 1}
	// Total output preserved.
	gotOut := d.Output(d.Full())
	wantOut := sm.Output(0, sm.Rows-1, 0, sm.Cols-1)
	if diff := gotOut - wantOut; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("coarsened total output %v, want %v", gotOut, wantOut)
	}
	// Total input preserved.
	gotIn := d.Input(d.Full())
	wantIn := sm.Input(0, sm.Rows-1, 0, sm.Cols-1)
	if diff := gotIn - wantIn; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("coarsened total input %v, want %v", gotIn, wantIn)
	}
	_ = model
}

func TestDenseOutputMatchesSampleRegions(t *testing.T) {
	sm, _, _, _ := buildTestSample(t, 2000, 24, 4, 400, 6)
	rowCuts := []int{0, 6, 12, 18, 24}
	colCuts := []int{0, 6, 12, 18, 24}
	d := Coarsen(sm, rowCuts, colCuts)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			r := Rect{R0: i, C0: j, R1: i, C1: j}
			got := d.Output(r)
			want := sm.Output(rowCuts[i], rowCuts[i+1]-1, colCuts[j], colCuts[j+1]-1)
			if diff := got - want; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("cell (%d,%d) output %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestMinimalCandidateRectMatchesScan(t *testing.T) {
	sm, _, _, _ := buildTestSample(t, 3000, 32, 6, 500, 7)
	d := Coarsen(sm, evenCutsForTest(32, 16), evenCutsForTest(32, 16))
	r := stats.NewRNG(8)
	for trial := 0; trial < 500; trial++ {
		r0 := r.Intn(d.Rows)
		r1 := r0 + r.Intn(d.Rows-r0)
		c0 := r.Intn(d.Cols)
		c1 := c0 + r.Intn(d.Cols-c0)
		rect := Rect{R0: r0, C0: c0, R1: r1, C1: c1}
		fast, fok := d.MinimalCandidateRect(rect)
		slow, sok := scanRect(d, rect)
		if fok != sok {
			t.Fatalf("rect %+v: fast ok=%v scan ok=%v", rect, fok, sok)
		}
		if fok && fast != slow {
			t.Fatalf("rect %+v: fast %+v != scan %+v", rect, fast, slow)
		}
	}
}

// scanRect is the brute-force reference for MinimalCandidateRect.
func scanRect(d *Dense, r Rect) (Rect, bool) {
	out := Rect{R0: -1}
	for i := r.R0; i <= r.R1; i++ {
		lo, hi := d.CandLo[i], d.CandHi[i]
		if lo < r.C0 {
			lo = r.C0
		}
		if hi > r.C1 {
			hi = r.C1
		}
		if lo > hi {
			continue
		}
		if out.R0 < 0 {
			out.R0, out.C0, out.C1 = i, lo, hi
		} else {
			if lo < out.C0 {
				out.C0 = lo
			}
			if hi > out.C1 {
				out.C1 = hi
			}
		}
		out.R1 = i
	}
	if out.R0 < 0 {
		return Rect{}, false
	}
	return out, true
}

func evenCutsForTest(n, k int) []int {
	cuts := make([]int, 0, k+1)
	for i := 0; i <= k; i++ {
		c := n * i / k
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

func TestRectHelpers(t *testing.T) {
	r := Rect{R0: 1, C0: 2, R1: 3, C1: 5}
	if r.Empty() {
		t.Error("non-empty rect reported empty")
	}
	if (Rect{R0: 2, R1: 1, C0: 0, C1: 0}).Empty() == false {
		t.Error("inverted rect not empty")
	}
	r2 := Rect{R0: 1, C0: 2, R1: 3, C1: 5}
	if r.Key() != r2.Key() {
		t.Error("equal rects have different keys")
	}
	if r.Key() == (Rect{R0: 1, C0: 2, R1: 3, C1: 6}).Key() {
		t.Error("different rects share a key")
	}
}

func TestMaxCandCellWeight(t *testing.T) {
	sm, _, _, _ := buildTestSample(t, 2000, 16, 2, 300, 9)
	d := Coarsen(sm, evenCutsForTest(16, 8), evenCutsForTest(16, 8))
	model := cost.Model{Wi: 1, Wo: 0.2}
	got := d.MaxCandCellWeight(model)
	max := 0.0
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if d.Candidate(i, j) {
				if w := d.Weight(model, Rect{R0: i, C0: j, R1: i, C1: j}); w > max {
					max = w
				}
			}
		}
	}
	if got != max {
		t.Fatalf("MaxCandCellWeight = %v, brute force %v", got, max)
	}
}

func TestSampleMaxCellWeightBound(t *testing.T) {
	// Lemma 3.1's σ: max cell weight must be at least the input-only floor
	// and at least every hit cell's weight.
	sm, _, _, _ := buildTestSample(t, 2000, 16, 2, 300, 10)
	model := cost.Model{Wi: 1, Wo: 0.2}
	sigma := sm.MaxCellWeight(model)
	floor := model.Weight(sm.RowUnit+sm.ColUnit, 0)
	if sigma < floor {
		t.Fatalf("σ = %v below input floor %v", sigma, floor)
	}
}

func TestScaleRegionsPreservesStructure(t *testing.T) {
	sm, _, _, _ := buildTestSample(t, 2000, 24, 3, 400, 11)
	d := Coarsen(sm, evenCutsForTest(24, 8), evenCutsForTest(24, 8))
	rect := Rect{R0: 1, C0: 1, R1: 3, C1: 4}
	before := d.Output(rect)
	outside := d.Output(Rect{R0: 5, C0: 5, R1: 7, C1: 7})
	scaled := d.ScaleRegions([]Rect{rect}, []float64{2})
	if got := scaled.Output(rect); got < before*1.99 || got > before*2.01 {
		t.Fatalf("scaled region output %v, want ~%v", got, before*2)
	}
	if got := scaled.Output(Rect{R0: 5, C0: 5, R1: 7, C1: 7}); got < outside*0.9999 || got > outside*1.0001 {
		t.Fatalf("untouched region changed: %v != %v", got, outside)
	}
	// Input weights and candidate structure must be untouched.
	if scaled.Input(scaled.Full()) != d.Input(d.Full()) {
		t.Fatal("input weights changed")
	}
	for i := 0; i < d.Rows; i++ {
		if scaled.CandLo[i] != d.CandLo[i] || scaled.CandHi[i] != d.CandHi[i] {
			t.Fatal("candidate spans changed")
		}
	}
}

func TestRectFromKeyRoundTrip(t *testing.T) {
	r := Rect{R0: 3, C0: 7, R1: 200, C1: 65535}
	if got := RectFromKey(r.Key()); got != r {
		t.Fatalf("round trip %+v != %+v", got, r)
	}
}

func TestDenseAccessors(t *testing.T) {
	bounds := []join.Key{0, 10, 20}
	d := NewDense(2, 2,
		[]float64{1, 2, 3, 4},
		[]float64{5, 7}, []float64{6, 8},
		bounds, bounds,
		[]int{0, 0}, []int{1, 1})
	if d.CellOutput(0, 1) != 2 || d.CellOutput(1, 0) != 3 {
		t.Fatal("CellOutput wrong")
	}
	if d.RowIn(1) != 7 || d.ColIn(0) != 6 {
		t.Fatal("band input accessors wrong")
	}
}
