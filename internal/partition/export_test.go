package partition

import "ewh/internal/join"

// DirectoryRange returns the key range the directory of the axis relation
// rel routes by spans, false when it has none.
func DirectoryRange(s *RegionScheme, rel int) (lo, hi join.Key, ok bool) {
	x := s.axis(rel)
	return x.lo, x.hi, x.dir != nil
}

// OffFastPath counts the keys of relation rel that route's inner loop hands
// to a bisection: outside the directory's range, or in a bucket more than
// one edge shares.
func OffFastPath(s *RegionScheme, rel int, keys []join.Key) int {
	x := s.axis(rel)
	if x.dir == nil {
		return 0
	}
	n, span := 0, uint64(x.hi)-uint64(x.lo)
	for _, k := range keys {
		d := uint64(k) - uint64(x.lo)
		if d > span || x.dir[d>>x.shift+1]-x.dir[d>>x.shift] > 1 {
			n++
		}
	}
	return n
}

func (s *RegionScheme) axis(rel int) *slabAxis {
	if rel == 2 {
		return &s.col
	}
	return &s.row
}
