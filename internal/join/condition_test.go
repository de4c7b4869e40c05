package join

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBandMatches(t *testing.T) {
	b := NewBand(2)
	cases := []struct {
		a, k Key
		want bool
	}{
		{0, 0, true}, {0, 2, true}, {0, 3, false},
		{5, 3, true}, {5, 2, false}, {-4, -6, true}, {-4, -7, false},
	}
	for _, c := range cases {
		if got := b.Matches(c.a, c.k); got != c.want {
			t.Errorf("Band(2).Matches(%d,%d) = %v, want %v", c.a, c.k, got, c.want)
		}
	}
}

func TestBandZeroIsEquality(t *testing.T) {
	b := NewBand(0)
	e := Equi{}
	for a := Key(-5); a <= 5; a++ {
		for k := Key(-5); k <= 5; k++ {
			if b.Matches(a, k) != e.Matches(a, k) {
				t.Fatalf("Band(0) and Equi disagree at (%d,%d)", a, k)
			}
		}
	}
}

func TestNewBandPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBand(-1) did not panic")
		}
	}()
	NewBand(-1)
}

// JoinableRange must agree with Matches: b is joinable with a iff b is in the
// range. Property-checked over small keys for every condition type.
func TestJoinableRangeConsistency(t *testing.T) {
	conds := []Condition{
		NewBand(0), NewBand(1), NewBand(7),
		Equi{},
		Inequality{Less}, Inequality{LessEq}, Inequality{Greater}, Inequality{GreaterEq},
	}
	for _, c := range conds {
		f := func(a8, b8 int8) bool {
			a, b := Key(a8), Key(b8)
			lo, hi := c.JoinableRange(a)
			inRange := lo <= b && b <= hi
			return inRange == c.Matches(a, b)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
}

// Range endpoints must be monotone nondecreasing in a, which CellCandidate
// relies on.
func TestJoinableRangeMonotone(t *testing.T) {
	conds := []Condition{
		NewBand(3), Equi{}, Inequality{Less}, Inequality{GreaterEq},
	}
	for _, c := range conds {
		prevLo, prevHi := c.JoinableRange(-100)
		for a := Key(-99); a <= 100; a++ {
			lo, hi := c.JoinableRange(a)
			if lo < prevLo || hi < prevHi {
				t.Fatalf("%v: joinable range not monotone at a=%d", c, a)
			}
			prevLo, prevHi = lo, hi
		}
	}
}

// CellCandidate must never report false for a cell that contains a matching
// pair (no false negatives; false positives are allowed and expected).
func TestCellCandidateNoFalseNegatives(t *testing.T) {
	conds := []Condition{NewBand(2), Equi{}, Inequality{LessEq}}
	for _, c := range conds {
		f := func(aLo8, aW, bLo8, bW uint8) bool {
			aLo := Key(int8(aLo8))
			aHi := aLo + Key(aW%16)
			bLo := Key(int8(bLo8))
			bHi := bLo + Key(bW%16)
			hasMatch := false
			for a := aLo; a <= aHi && !hasMatch; a++ {
				for b := bLo; b <= bHi; b++ {
					if c.Matches(a, b) {
						hasMatch = true
						break
					}
				}
			}
			if hasMatch && !CellCandidate(c, aLo, aHi, bLo, bHi) {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
}

// For the band condition the candidacy check is exact (no false positives
// either) because every key in a boundary range is attainable.
func TestCellCandidateExactForBand(t *testing.T) {
	c := NewBand(1)
	// Paper example §II-B: grid cell (0,1) in Fig. 1c is a non-candidate
	// because the distance between R2 lower bound 5 and R1 upper bound 3
	// exceeds the band width 1.
	if CellCandidate(c, 3, 3, 5, 5) {
		t.Error("cell with R1 in [3,3], R2 in [5,5] should not be candidate for band 1")
	}
	if !CellCandidate(c, 3, 3, 4, 5) {
		t.Error("cell with R1 in [3,3], R2 in [4,5] should be candidate for band 1")
	}
}

func TestInequalityMatches(t *testing.T) {
	cases := []struct {
		op   Op
		a, b Key
		want bool
	}{
		{Less, 1, 2, true}, {Less, 2, 2, false},
		{LessEq, 2, 2, true}, {LessEq, 3, 2, false},
		{Greater, 3, 2, true}, {Greater, 2, 2, false},
		{GreaterEq, 2, 2, true}, {GreaterEq, 1, 2, false},
	}
	for _, c := range cases {
		q := Inequality{c.op}
		if got := q.Matches(c.a, c.b); got != c.want {
			t.Errorf("%v.Matches(%d,%d) = %v, want %v", q, c.a, c.b, got, c.want)
		}
	}
}

// A strict inequality at the int64 extreme matches nothing, and its joinable
// range must say so instead of wrapping a ±1 to the far side of the domain.
func TestInequalityRangeAtTheInt64Extremes(t *testing.T) {
	for _, c := range []struct {
		op Op
		a  Key
	}{{Less, math.MaxInt64}, {Greater, math.MinInt64}} {
		q := Inequality{c.op}
		lo, hi := q.JoinableRange(c.a)
		for _, b := range []Key{MinKey, 0, 5, 7, MaxKey} {
			if inRange := lo <= b && b <= hi; inRange != q.Matches(c.a, b) {
				t.Errorf("%v: JoinableRange(%d) = [%d, %d] holds %d, Matches says %v", q, c.a, lo, hi, b, q.Matches(c.a, b))
			}
		}
	}
}

func TestCompositeEncodingFaithful(t *testing.T) {
	spec := CompositeSpec{SecondaryMax: 7, Beta: 2}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cond := spec.Condition()
	for c1 := int64(0); c1 < 4; c1++ {
		for p1 := int64(0); p1 <= 7; p1++ {
			for c2 := int64(0); c2 < 4; c2++ {
				for p2 := int64(0); p2 <= 7; p2++ {
					want := c1 == c2 && abs64(p1-p2) <= 2
					got := cond.Matches(spec.Encode(c1, p1), spec.Encode(c2, p2))
					if got != want {
						t.Fatalf("composite (%d,%d)x(%d,%d): got %v want %v", c1, p1, c2, p2, got, want)
					}
				}
			}
		}
	}
}

// TestCompositeValidateRejectsUnencodable: a negative field, or one that
// leaves no room for a primary in an int64, is refused.
func TestCompositeValidateRejectsUnencodable(t *testing.T) {
	for _, spec := range []CompositeSpec{
		{SecondaryMax: -1}, {Beta: -1}, {SecondaryMax: math.MaxInt64 / 2}, {SecondaryMax: 7, Beta: math.MaxInt64},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%+v accepted", spec)
		}
	}
}

// TestCompositeDecode round-trips (primary, secondary) pairs, negative
// primaries included: Decode floors, so the secondary stays in [0, stride).
func TestCompositeDecode(t *testing.T) {
	spec := CompositeSpec{SecondaryMax: 5, Beta: 2} // stride 8
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if k := spec.Encode(-1, 3); k != -5 {
		t.Fatalf("Encode(-1, 3) = %d, want -5", k)
	}
	for _, c := range []struct{ p, s int64 }{
		{0, 0}, {0, 5}, {123, 5}, {-1, 0}, {-1, 3}, {-1, 5}, {-2, 1}, {-1000, 4}, {MinKey / 8, 2},
	} {
		if p, s := spec.Decode(spec.Encode(c.p, c.s)); p != c.p || s != c.s {
			t.Errorf("Decode(Encode(%d, %d)) = (%d, %d)", c.p, c.s, p, s)
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
