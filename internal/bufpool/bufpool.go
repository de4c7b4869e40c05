// Package bufpool recycles the engine's transient slices — shuffled key
// columns, a worker's receive buffers, pair chunks, sort and codec scratch —
// under one policy: a request is served only from its own size class.
//
// One pool for every size gets both ends wrong: a small request pins a big
// buffer, and a big one pops and drops a small buffer to allocate afresh, so
// the heap a run holds depends on the order its goroutines happened to
// recycle and reuse buffers in. With size classes it does not.
//
// A pooled slice is returned unzeroed: callers overwrite every slot they
// read (the shuffle's scatter covers its buffer exactly; a decode fills its
// chunk from the wire), which is what lets the hot path skip the memclr a
// fresh make would pay. That is safe only for pointer-free element types — a
// stale slot then keeps nothing reachable — and every Pool here holds one.
//
// Two object pools stay outside this package: exec's RouteBatch pool, whose
// elements carry Groups/Counts slices that partition resizes in Reset, and
// localjoin's RankOrder pool, which recycles a three-buffer object whose
// sizes rankTable.count decides only after its refusal checks. Neither is a
// slice of one length a caller asks for.
package bufpool

import (
	"math/bits"
	"sync"
)

// minLen is the smallest pooled capacity; smaller requests round up.
const minLen = 64

// Pool recycles []E by size class. The zero value is ready to use. E must be
// pointer-free.
type Pool[E any] struct {
	classes [4 * 64]sync.Pool // class c stores *[]E of capacity size(c)
}

// Keys serves every key buffer and key scratch (join.Key is an int64), so
// the shuffle, a worker's receive path and the local joins share one idle
// cache.
var Keys Pool[int64]

// class returns the size class of a request for n elements and the capacity
// its buffers have: four classes per power of two, so a buffer is at most
// 25 % larger than the request it serves.
func class(n int) (c, size int) {
	n = max(n, minLen)
	b := bits.Len(uint(n - 1)) // 2^(b-1) < n <= 2^b
	step := 1 << (b - 3)
	q := (n + step - 1) / step // 5..8
	return 4*b + q - 5, q * step
}

// Get returns a slice of length n whose capacity is n's class size. The
// contents are unzeroed: the caller must overwrite every slot it reads.
// Release it with Put.
func (p *Pool[E]) Get(n int) []E {
	c, size := class(n)
	if v := p.classes[c].Get(); v != nil {
		return (*v.(*[]E))[:n]
	}
	return make([]E, n, size)
}

// Put recycles a slice obtained from Get. The caller must not retain any
// slice of it. A slice whose capacity is not a class size (one Get did not
// allocate) is left to the collector.
func (p *Pool[E]) Put(s []E) {
	if cap(s) < minLen {
		return
	}
	c, size := class(cap(s))
	if size != cap(s) {
		return
	}
	s = s[:0]
	p.classes[c].Put(&s)
}
