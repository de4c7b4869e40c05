// Package keysort sorts int64 join keys with an LSD radix sort specialized
// for the engine's hot paths. Comparison sorting is O(n log n) with branchy
// inner loops; counting-sort passes over the bytes that actually vary are
// O(n) with sequential access, which on real key distributions (small or
// clustered domains) leaves only two or three passes. Small inputs fall back
// to slices.Sort.
package keysort

import "slices"

// cutoff below which slices.Sort (pdqsort) wins: radix pays fixed histogram
// and scratch costs that only amortize on larger inputs.
const cutoff = 256

// signMask biases two's-complement int64 into unsigned order: flipping the
// sign bit makes uint64 comparison agree with int64 comparison.
const signMask = 1 << 63

// digit returns the radix digit of k at the given bit shift under the
// sign-bias transform: negative and positive keys order consistently across
// the whole byte range.
func digit(k int64, shift uint) byte {
	return byte((uint64(k) ^ signMask) >> shift)
}

// Sort sorts a ascending in place.
func Sort(a []int64) {
	if len(a) < cutoff {
		slices.Sort(a)
		return
	}
	SortWithScratch(a, make([]int64, len(a)))
}

// SortWithScratch is Sort with a caller-provided scratch buffer of at least
// len(a), for loops that sort many slices and want one allocation.
func SortWithScratch(a, scratch []int64) {
	if len(a) < cutoff {
		slices.Sort(a)
		return
	}
	// One linear scan finds the bytes that differ between keys; constant
	// bytes (the common case for clustered key domains) need no pass.
	first := uint64(a[0]) ^ signMask
	var diff uint64
	for _, v := range a {
		diff |= (uint64(v) ^ signMask) ^ first
	}
	if diff == 0 {
		return // all keys equal
	}
	src, dst := a, scratch[:len(a)]
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		var count [256]int
		for _, v := range src {
			count[digit(v, shift)]++
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for _, v := range src {
			b := digit(v, shift)
			dst[count[b]] = v
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
