package join

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// shiftedChain wraps Equi in levels-1 Shifted conditions: a Spec of levels.
func shiftedChain(levels int) Condition {
	var c Condition = Equi{}
	for i := 1; i < levels; i++ {
		c = Shifted{Inner: c, Scale: 2, Offset: int64(i)}
	}
	return c
}

// TestSpecDepthBound pins MaxSpecDepth from both sides: a chain at the bound
// round-trips, and one level past it SpecOf refuses to build and Condition
// refuses to rebuild, each naming the bound.
func TestSpecDepthBound(t *testing.T) {
	at, err := SpecOf(shiftedChain(MaxSpecDepth))
	if err != nil {
		t.Fatalf("a %d-level chain: %v", MaxSpecDepth, err)
	}
	if _, err := at.Condition(); err != nil {
		t.Fatalf("a %d-level spec: %v", MaxSpecDepth, err)
	}
	bound := strconv.Itoa(MaxSpecDepth)
	if _, err := SpecOf(shiftedChain(MaxSpecDepth + 1)); err == nil || !strings.Contains(err.Error(), bound) {
		t.Errorf("SpecOf one level past the bound: %v, want an error naming %s", err, bound)
	}
	past := Spec{Kind: "shifted", Scale: 2, Inner: &at}
	if _, err := past.Condition(); err == nil || !strings.Contains(err.Error(), bound) {
		t.Errorf("Condition one level past the bound: %v, want an error naming %s", err, bound)
	}
}

// specFrom decodes fuzz bytes into a Spec chain, three bytes a level: the
// kind, a mask of the fields to set (Inner among them) and their value. It
// returns nil for fewer than three bytes, and the chain's length in levels.
func specFrom(b []byte) (*Spec, int) {
	if len(b) < 3 {
		return nil, 0
	}
	kinds := []string{"band", "equi", "inequality", "shifted", "", "bogus"}
	s := &Spec{Kind: kinds[int(b[0])%len(kinds)]}
	mask, v := b[1], int64(int8(b[2]))
	if mask&1 != 0 {
		s.Beta = v
	}
	if mask&2 != 0 {
		s.Op = Op(v)
	}
	if mask&4 != 0 {
		s.Scale = v
	}
	if mask&8 != 0 {
		s.Offset = v
	}
	depth := 1
	if mask&16 != 0 {
		var d int
		s.Inner, d = specFrom(b[3:])
		depth += d
	}
	return s, depth
}

// FuzzSpecCondition holds Condition to the Specs SpecOf writes: any tree
// either fails to rebuild or rebuilds a condition whose SpecOf is the tree
// again, and a tree deeper than MaxSpecDepth always fails.
func FuzzSpecCondition(f *testing.F) {
	f.Add([]byte{3, 4 | 8 | 16, 5, 0, 1, 7})                                     // shifted(band 7)
	f.Add([]byte{2, 2, 3})                                                       // inequality >=
	f.Add([]byte{1, 1, 3})                                                       // equi carrying a beta
	f.Add([]byte{3, 16, 0, 3, 16, 0, 3, 4, 1})                                   // shifted without an inner
	f.Add(append([]byte(strings.Repeat("\x03\x14\x02", MaxSpecDepth)), 1, 0, 0)) // one level past the bound
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*4*MaxSpecDepth {
			t.Skip()
		}
		s, depth := specFrom(data)
		if s == nil {
			return
		}
		c, err := s.Condition()
		if depth > MaxSpecDepth && err == nil {
			t.Fatalf("a %d-level spec rebuilt as %v", depth, c)
		}
		if err != nil {
			return
		}
		back, err := SpecOf(c)
		if err != nil || !reflect.DeepEqual(back, *s) {
			t.Fatalf("spec %+v rebuilt as %v, which specs as %+v (%v)", *s, c, back, err)
		}
	})
}
