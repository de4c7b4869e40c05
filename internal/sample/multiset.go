package sample

import (
	"math"
	"slices"

	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/keysort"
)

// KeyMultiset is d2equi from §IV-A: a relation's join keys with their
// multiplicities and prefix sums. It answers "how many R2 tuples are joinable
// with key k" (d2) and "select the u-th joinable R2 key", which Stream-Sample
// uses to weight the R1 sample and to draw uniform output partners; the
// planner reads R2's histogram off it the same way (Histogram).
// Stream-Sample asks once per key of R1's input sample, in its draw order, so
// a lookup's cost is the cache lines it touches. It has two forms
// (DESIGN.md "Planner"):
//
//   - dense, when the key span is small against the count (denseFits): one
//     cumulative count per key of the span, so d2 is two loads and the build
//     needs no sort;
//   - sparse otherwise: the sorted distinct keys and their prefix sums, with a
//     directory that narrows a search to the few keys sharing the probe's top
//     bits before any key is read.
type KeyMultiset struct {
	// Dense form (cum != nil): cum[v] is the number of tuples with a key below
	// base+v; len(cum) = span+2, so cum[span+1] is the total.
	base join.Key
	cum  []uint32

	// Sparse form.
	keys   []join.Key
	prefix []int64 // prefix[i] = total multiplicity of keys[0..i-1]; len = len(keys)+1
	// dir[b] is the index of the first key k with (k - keys[0]) >> shift >= b,
	// and its last entry is len(keys): the lower bound of a key in bucket b
	// lies in [dir[b], dir[b+1]]. shift is the smallest that keeps dir no longer
	// than keys (at most 4 bytes per distinct key), so a key span that one
	// outlier stretches leaves every other key in bucket 0 and the search
	// degrades to the full bisection. Nil below two keys.
	dir   []uint32
	shift uint
}

// denseFits is the rule that picks the dense form for n keys spanning
// [min, min+span]: its table of 4-byte counts is no bigger than the sparse
// form's bound of 20 bytes per key (an 8-byte key, an 8-byte prefix sum and a
// 4-byte directory entry), and a slot index fits the int32 that
// Stream-Sample caches per R1 key.
func denseFits(n int, span uint64) bool {
	return span < 1<<31 && span+2 <= 5*uint64(n) && uint64(n) <= math.MaxUint32
}

// BuildMultiset constructs the multiset from a relation's keys: one min/max
// pass, then the dense form's counting and prefix passes when denseFits, or
// else the sparse form's sort.
func BuildMultiset(keys []join.Key) *KeyMultiset {
	if len(keys) > 0 {
		lo, hi := keys[0], keys[0]
		for _, k := range keys[1:] {
			lo, hi = min(lo, k), max(hi, k)
		}
		if span := uint64(hi) - uint64(lo); denseFits(len(keys), span) {
			return buildDense(keys, lo, span)
		}
	}
	return buildSparse(keys)
}

// buildDense counts keys, all within [base, base+span], into the cumulative
// table.
func buildDense(keys []join.Key, base join.Key, span uint64) *KeyMultiset {
	cum := make([]uint32, span+2)
	for _, k := range keys {
		cum[uint64(k)-uint64(base)+1]++
	}
	var below uint32
	for v, c := range cum {
		below += c
		cum[v] = below
	}
	return &KeyMultiset{base: base, cum: cum}
}

// buildSparse copies and radix-sorts the keys (keysort); the distinct keys
// are then compacted in place into that copy and the prefix sums written over
// the sort's scratch buffer, so the fold allocates nothing beyond the
// directory.
func buildSparse(keys []join.Key) *KeyMultiset {
	sorted := slices.Clone(keys)
	prefix := make([]int64, len(sorted)+1)
	keysort.SortWithScratch(sorted, prefix)
	prefix[0] = 0
	n := 0
	for i, k := range sorted {
		if i == 0 || k != sorted[n-1] {
			sorted[n] = k
			n++
		}
		prefix[n] = int64(i + 1)
	}
	m := &KeyMultiset{keys: sorted[:n], prefix: prefix[:n+1]}
	if n < 2 {
		return m
	}
	base := uint64(m.keys[0])
	span := uint64(m.keys[n-1]) - base
	for span>>m.shift >= uint64(n-1) {
		m.shift++
	}
	m.dir = make([]uint32, span>>m.shift+2)
	for _, k := range m.keys {
		m.dir[(uint64(k)-base)>>m.shift+1]++
	}
	var below uint32
	for b, c := range m.dir {
		below += c
		m.dir[b] = below
	}
	return m
}

// Total returns the total multiplicity (the relation size).
func (m *KeyMultiset) Total() int64 {
	if m.cum != nil {
		return int64(m.cum[len(m.cum)-1])
	}
	return m.prefix[len(m.keys)]
}

// lowerBound returns the first index i with m.keys[i] >= k: the directory's
// bucket for k, then a bisection of the keys in it.
func (m *KeyMultiset) lowerBound(k join.Key) int {
	keys := m.keys
	lo, hi := 0, len(keys)
	if len(m.dir) > 0 {
		if k <= keys[0] {
			return 0
		}
		// Unsigned, so a span up to 2^64 - 1 does not wrap.
		b := (uint64(k) - uint64(keys[0])) >> m.shift
		if b >= uint64(len(m.dir)-1) {
			return hi
		}
		lo, hi = int(m.dir[b]), int(m.dir[b+1])
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopUpper returns the first index j >= i in the sorted slice a with
// a[j] > target, galloping forward from i. Joinable ranges are narrow
// relative to the key domain, so when i is the range's lower bound the
// answer is almost always within a few slots — the gallop touches O(log d)
// cache lines instead of a full-width binary search's O(log n).
func gallopUpper[T interface{ ~int64 | ~uint32 }](a []T, i int, target T) int {
	n := len(a)
	if i >= n || a[i] > target {
		return i
	}
	step := 1
	lo, hi := i, i+1
	for hi < n && a[hi] <= target {
		lo = hi
		step <<= 1
		hi = i + step
	}
	if hi > n {
		hi = n
	}
	// Invariant: a[lo] <= target, and (hi == n or a[hi] > target).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// SelectAt returns the u-th key (0-based, ordered, counting multiplicity) of
// the joinable range whose index D2At handed out as at, so repeated draws for
// the same key skip the key search entirely. The caller guarantees
// 0 <= u < d2.
func (m *KeyMultiset) SelectAt(at int32, u int64) join.Key {
	i := int(at)
	if m.cum != nil {
		// First slot j with cum[j+1] > cum[at] + u; cum is nondecreasing.
		return m.base + join.Key(gallopUpper(m.cum, i+1, m.cum[i]+uint32(u))-1)
	}
	target := m.prefix[i] + u
	// First j with prefix[j+1] > target (prefix is strictly increasing);
	// u < d2 keeps the answer inside the joinable range, so gallop from i.
	j := gallopUpper(m.prefix, i+1, target) - 1
	return m.keys[j]
}

// Histogram returns the relation's exact ns-bucket equi-depth histogram: the
// keys at ranks ⌊i·n/ns⌋, each found by SelectAt's prefix-sum search from the
// first slot, so it needs neither a sample nor a sort (histogram.FromRanks).
func (m *KeyMultiset) Histogram(ns int) (*histogram.EquiDepth, error) {
	return histogram.FromRanks(int(m.Total()), ns, func(r int) join.Key { return m.SelectAt(0, int64(r)) })
}

// D2At returns d2(k), the joinable-set size of the R1 key k under condition
// c, together with an index for k's joinable range — its first slot in the
// dense form, its lower-bound key index in the sparse one — for callers that
// will draw partners for k later (SelectAt) or that scan the same keys twice
// (Stream-Sample's weight and materialize passes cache these instead of
// re-searching).
func (m *KeyMultiset) D2At(c join.Condition, k join.Key) (int64, int32) {
	lo, hi := c.JoinableRange(k)
	if lo > hi {
		return 0, 0
	}
	if m.cum != nil {
		return m.denseD2(lo, hi)
	}
	i := m.lowerBound(lo)
	j := gallopUpper(m.keys, i, hi)
	return m.prefix[j] - m.prefix[i], int32(i)
}

// denseD2 is D2At's dense form for the non-empty range [lo, hi], clamped to
// the table at both ends.
func (m *KeyMultiset) denseD2(lo, hi join.Key) (int64, int32) {
	last := uint64(len(m.cum) - 2) // the span: the last slot holding keys
	if hi < m.base {
		return 0, 0
	}
	var a uint64
	if lo > m.base {
		if a = uint64(lo) - uint64(m.base); a > last {
			return 0, 0
		}
	}
	// Clamped before the +1, so hi = MaxInt64 cannot wrap.
	b := min(uint64(hi)-uint64(m.base), last) + 1
	return int64(m.cum[b] - m.cum[a]), int32(a)
}
