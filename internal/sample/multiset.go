package sample

import (
	"slices"

	"ewh/internal/join"
	"ewh/internal/keysort"
)

// KeyMultiset is d2equi from §IV-A: the sorted distinct join keys of a
// relation with their multiplicities and prefix sums. It answers
// "how many R2 tuples are joinable with key k" (d2) and "select the u-th
// joinable R2 key" in O(log n), which Stream-Sample uses to weight the R1
// sample and to draw uniform output partners.
type KeyMultiset struct {
	keys   []join.Key
	prefix []int64 // prefix[i] = total multiplicity of keys[0..i-1]; len = len(keys)+1
}

// BuildMultiset constructs the multiset from a relation's keys. The input is
// copied and radix-sorted (keysort), then the run-length groups are folded
// into keys and prefix sums in a single pass over preallocated storage — a
// handful of allocations regardless of the number of distinct keys.
func BuildMultiset(keys []join.Key) *KeyMultiset {
	sorted := slices.Clone(keys)
	keysort.Sort(sorted)
	ks := make([]join.Key, 0, len(sorted))
	prefix := make([]int64, 1, len(sorted)+1)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		ks = append(ks, sorted[i])
		prefix = append(prefix, prefix[len(prefix)-1]+int64(j-i))
		i = j
	}
	return &KeyMultiset{keys: ks, prefix: prefix}
}

// Total returns the total multiplicity (the relation size).
func (m *KeyMultiset) Total() int64 { return m.prefix[len(m.keys)] }

// Distinct returns the number of distinct keys.
func (m *KeyMultiset) Distinct() int { return len(m.keys) }

// lowerBound returns the first index i with m.keys[i] >= k.
func (m *KeyMultiset) lowerBound(k join.Key) int {
	keys := m.keys
	lo, hi := 0, len(keys)
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
func gallopUpper[T interface{ ~int64 }](a []T, i int, target T) int {
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
// the joinable range whose lower-bound index D2At handed out as at, so
// repeated draws for the same key skip the key search entirely. The caller
// guarantees 0 <= u < d2.
func (m *KeyMultiset) SelectAt(at int32, u int64) join.Key {
	i := int(at)
	target := m.prefix[i] + u
	// First j with prefix[j+1] > target (prefix is strictly increasing);
	// u < d2 keeps the answer inside the joinable range, so gallop from i.
	j := gallopUpper(m.prefix, i+1, target) - 1
	return m.keys[j]
}

// D2At returns d2(k), the joinable-set size of the R1 key k under condition
// c, together with the lower-bound index of k's joinable range, for callers
// that will draw partners for k later (SelectAt) or that scan the same keys
// twice (Stream-Sample's weight and materialize passes cache these instead of
// re-searching).
func (m *KeyMultiset) D2At(c join.Condition, k join.Key) (int64, int32) {
	lo, hi := c.JoinableRange(k)
	if lo > hi {
		return 0, 0
	}
	i := m.lowerBound(lo)
	j := gallopUpper(m.keys, i, hi)
	return m.prefix[j] - m.prefix[i], int32(i)
}
