package localjoin

import (
	"math"
	"math/bits"

	"ewh/internal/join"
)

// This file is the table form of a band or inequality resident: a cumulative
// count over the sealed side's key span, read as rank(k), the number of
// resident keys at most k. A probe key then counts rank(hi) − rank(lo − 1)
// over its joinable range [lo, hi], with no sort and no sweep, so a chunk
// counts on arrival in O(chunk).
//
// The span is cut into at most rankParts ranges of 1<<shift slots each. A
// slot holds the rank within its range in 2 bytes, a range the keys below it
// in 4, so at the denseSpan bound the table is at most 16 B a key. Keys are
// counted into their slots where they lie and probed in arrival order:
// scattering either side by range first, to keep each range's window of the
// table in cache, was slower on sparse blocks too (EXPERIMENTS.md "Rejected
// forms").

// rankParts bounds the number of key ranges a rank table is cut into, which
// keeps the 4-byte range bases within 1 KiB.
const rankParts = 256

// rankTable is a sealed side in the table form. It is immutable.
type rankTable struct {
	lo    join.Key // least resident key: slot 0
	shift uint     // a range is 1<<shift slots
	cum   []uint16 // cum[i]: resident keys at most lo+i in i's range
	base  []uint32 // base[p]: resident keys in the ranges before range p
	n     int64    // resident keys
}

// tableFits is the span rule: a side of n keys over [lo, hi] takes the table
// form when its span is at most denseSpan slots per key. An empty side does.
func tableFits(lo, hi join.Key, n int) bool {
	return n == 0 || uint64(hi)-uint64(lo) <= denseSpan*uint64(n)
}

// newRankTable counts the keys of runs, n in all over [lo, hi], into a rank
// table. It returns nil when a range would hold more keys than a 2-byte slot
// counts; the side then stays a sorted block. The caller refuses a side past
// rankParts × 65,535 keys up front, which also keeps the 4-byte range bases
// from wrapping.
func newRankTable(runs [][]join.Key, lo, hi join.Key, n int) *rankTable {
	t := &rankTable{lo: lo, n: int64(n)}
	if n == 0 {
		return t
	}
	span := uint64(hi) - uint64(lo)
	t.shift = uint(max(bits.Len64(span)-bits.Len64(rankParts-1), 0))
	t.cum = make([]uint16, span+1)
	var counts [rankParts]int32
	count := counts[:span>>t.shift+1]
	for _, run := range runs {
		for _, k := range run {
			i := uint64(k) - uint64(lo)
			t.cum[i]++ // wraps only in a range accumulate refuses
			count[i>>t.shift]++
		}
	}
	if !t.accumulate(count) {
		return nil
	}
	return t
}

// accumulate turns each range's slot counts into running sums and sets the
// range bases from count, the keys in each range. It reports false, leaving
// the table unusable, when a range holds more keys than a 2-byte slot counts.
func (t *rankTable) accumulate(count []int32) bool {
	t.base = make([]uint32, len(count))
	var below uint32
	for p, c := range count {
		if c > math.MaxUint16 {
			return false
		}
		win := t.cum[p<<t.shift : min((p+1)<<t.shift, len(t.cum))]
		var run uint16
		for i := range win {
			run += win[i]
			win[i] = run
		}
		t.base[p] = below
		below += uint32(c)
	}
	return true
}

// probeCount counts the matches of one chunk of the other relation. With R2
// resident a probe key counts over cond's JoinableRange; with R1 resident
// over the converse range, the R1 keys whose JoinableRange holds it.
func (t *rankTable) probeCount(keys []join.Key, cond join.Condition, r1 bool) (out int64) {
	if t.n == 0 {
		return 0
	}
	lo0, n, shift, cum, base := t.lo, t.n, t.shift, t.cum, t.base
	// rank is the number of resident keys at most k.
	rank := func(k join.Key) int64 {
		if i := uint64(k) - uint64(lo0); i < uint64(len(cum)) {
			return int64(base[i>>shift]) + int64(cum[i])
		}
		if k < lo0 {
			return 0
		}
		return n
	}
	// within is the number of resident keys in [lo, hi]. lo − 1 is taken only
	// above the least resident key, so it cannot wrap.
	within := func(lo, hi join.Key) int64 {
		if hi < lo {
			return 0
		}
		if lo <= lo0 {
			return rank(hi)
		}
		return rank(hi) - rank(lo-1)
	}
	switch c := cond.(type) {
	case join.Band: // its own converse
		for _, k := range keys {
			out += within(c.JoinableRange(k))
		}
	case join.Inequality:
		if r1 {
			for _, k := range keys {
				out += within(converseRange(c.Op, k))
			}
			break
		}
		for _, k := range keys {
			out += within(c.JoinableRange(k))
		}
	}
	return out
}

// converseRange returns the R1 keys a whose Inequality{Op: op} JoinableRange
// holds the R2 key b: the flipped comparison, with the open end reaching the
// int64 extreme, and none when b lies beyond the [MinKey, MaxKey] bound that
// JoinableRange puts on R2 keys.
func converseRange(op join.Op, b join.Key) (lo, hi join.Key) {
	switch {
	case op == join.Less && b <= join.MaxKey && b > math.MinInt64:
		return math.MinInt64, b - 1
	case op == join.LessEq && b <= join.MaxKey:
		return math.MinInt64, b
	case op == join.Greater && b >= join.MinKey && b < math.MaxInt64:
		return b + 1, math.MaxInt64
	case op == join.GreaterEq && b >= join.MinKey:
		return b, math.MaxInt64
	}
	return 0, -1
}

// ranked reports whether cond is one the table form counts: a band wider
// than equality (composite keys included) or an inequality. Conditions from
// outside this library stay on the sort + sweep.
func ranked(cond join.Condition) bool {
	switch c := cond.(type) {
	case join.Band:
		return c.Beta > 0
	case join.Inequality:
		return true
	}
	return false
}
