package join

import "testing"

// specFrom decodes three fuzz bytes into a Spec: the kind, a mask of the
// fields to set and their value. It returns false for fewer than three bytes.
func specFrom(b []byte) (Spec, bool) {
	if len(b) < 3 {
		return Spec{}, false
	}
	kinds := []string{"band", "equi", "inequality", "shifted", "", "bogus"}
	s := Spec{Kind: kinds[int(b[0])%len(kinds)]}
	mask, v := b[1], int64(int8(b[2]))
	if mask&1 != 0 {
		s.Beta = v
	}
	if mask&2 != 0 {
		s.Op = Op(v)
	}
	return s, true
}

// FuzzSpecCondition holds Condition to the Specs SpecOf writes: any spec —
// an unknown kind, a field its kind does not use, an out-of-range value —
// either fails to rebuild or rebuilds a condition whose SpecOf is the spec
// again.
func FuzzSpecCondition(f *testing.F) {
	f.Add([]byte{0, 1, 7}) // band 7
	f.Add([]byte{2, 2, 3}) // inequality >=
	f.Add([]byte{1, 1, 3}) // equi carrying a beta
	f.Add([]byte{3, 1, 2}) // a kind no condition has
	f.Add([]byte{0, 3, 2}) // band carrying an op
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok := specFrom(data)
		if !ok {
			return
		}
		c, err := s.Condition()
		if err != nil {
			return
		}
		back, err := SpecOf(c)
		if err != nil || back != s {
			t.Fatalf("spec %+v rebuilt as %v, which specs as %+v (%v)", s, c, back, err)
		}
	})
}
