package localjoin

import (
	"math"
	"math/bits"
	"sync"

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
// in 4, so at the tableSpan bound the slots take the directBytesPerKey budget
// and the range bases at most 1 KiB more. Keys are counted into their slots
// where they lie and probed in arrival order: scattering either side by range
// first, to keep each range's window of the table in cache, was slower on
// sparse blocks too (EXPERIMENTS.md "Rejected forms").
//
// A pair join's relation 2 takes the same layout (RankOrder) under the same
// bound: counted with exclusive sums, the slots are the cursors of a
// counting scatter of arrival indices, which leaves them holding the ranks.

// rankParts bounds the number of key ranges a rank table is cut into, which
// keeps the 4-byte range bases within 1 KiB.
const rankParts = 256

// rankTable is a sealed side in the table form. A resident's is immutable and
// may be shared through the build cache, so its storage is never pooled.
type rankTable struct {
	lo    join.Key // least resident key: slot 0
	hi    join.Key // greatest resident key: the last slot
	shift uint     // a range is 1<<shift slots
	cum   []uint16 // cum[i]: resident keys at most lo+i in i's range
	base  []uint32 // base[p]: resident keys in the ranges before range p
}

// MemBytes is the table's storage: 2 B a slot and 4 B a range, the unit
// BuildCache charges it.
func (t *rankTable) MemBytes() int64 { return 2*int64(len(t.cum)) + 4*int64(len(t.base)) }

// tableSpan bounds the table form at this many slots per key: the
// directBytesPerKey budget at 2 B a slot.
const tableSpan = directBytesPerKey / 2

// tableFits is the budget rule: a side of n keys over [lo, hi] takes the table
// form when its span is at most tableSpan slots per key, judged on the whole
// side. An empty side does.
func tableFits(lo, hi join.Key, n int) bool {
	return n == 0 || uint64(hi)-uint64(lo) <= tableSpan*uint64(n)
}

// keyRange returns the least and greatest key of runs and their number; lo >
// hi when there are none.
func keyRange(runs [][]join.Key) (lo, hi join.Key, n int) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, run := range runs {
		n += len(run)
		for _, k := range run {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	return lo, hi, n
}

// newRankTable counts the keys of runs, n in all over [lo, hi], into a rank
// table. It returns nil when a range would hold more keys than a 2-byte slot
// counts; the side then stays a sorted block.
func newRankTable(runs [][]join.Key, lo, hi join.Key, n int) *rankTable {
	t := new(rankTable)
	if !t.count(runs, lo, hi, n) || !t.accumulate(false) {
		return nil
	}
	return t
}

// RankOrder is relation 2 of a pair join in the table form: its arrival
// indices ordered by key, ties in arrival order, with the rank table of its
// keys, so the partners of a joinable range are one slice found in O(1).
type RankOrder struct {
	t     rankTable
	order []uint32 // arrival indices ascending by (key, arrival index)
}

var rankOrderPool sync.Pool // stores *RankOrder

// NewRankOrder counts keys into a RankOrder when they pass the budget rule, or
// whatever their span when anySpan (tests force the form with it, over spans
// a table can be allocated for). It returns nil for keys the rule or the
// table refuses. Release returns the buffers for the next call to reuse.
func NewRankOrder(keys []join.Key, anySpan bool) *RankOrder {
	lo, hi, _ := keyRange([][]join.Key{keys})
	if !anySpan && !tableFits(lo, hi, len(keys)) {
		return nil
	}
	o, _ := rankOrderPool.Get().(*RankOrder)
	if o == nil {
		o = new(RankOrder)
	}
	t := &o.t
	if !t.count([][]join.Key{keys}, lo, hi, len(keys)) || !t.accumulate(true) {
		o.Release()
		return nil
	}
	if cap(o.order) < len(keys) {
		o.order = make([]uint32, len(keys))
	}
	order, cum, base, shift := o.order[:len(keys)], t.cum, t.base, t.shift
	// A slot's exclusive sum is its first key's place within its range; each
	// key placed advances it, so the scatter is stable and leaves the
	// inclusive sums, the ranks.
	for i, k := range keys {
		s := uint64(k) - uint64(lo)
		order[base[s>>shift]+uint32(cum[s])] = uint32(i)
		cum[s]++
	}
	o.order = order
	return o
}

// Partners returns the arrival indices of the keys in [lo, hi], ascending by
// key and, among equal keys, by arrival. The slice is valid until Release.
func (o *RankOrder) Partners(lo, hi join.Key) []uint32 {
	from, to := o.t.bounds(lo, hi)
	return o.order[from:to]
}

// Release hands o's buffers back; o must not be used after.
func (o *RankOrder) Release() { rankOrderPool.Put(o) }

// count lays t out for n keys over [lo, hi], reusing its slot and range
// storage where that is large enough, and counts the keys of runs into their
// slots, leaving each range's key count in its base. It reports false when
// the table cannot count them: past rankParts × 65,535 keys some range must
// overflow its 2-byte slots, and this refusal up front also keeps the 4-byte
// range bases from wrapping.
func (t *rankTable) count(runs [][]join.Key, lo, hi join.Key, n int) bool {
	if n > rankParts*math.MaxUint16 {
		return false
	}
	t.lo, t.hi = lo, hi
	if n == 0 {
		t.cum, t.base = t.cum[:0], t.base[:0]
		return true
	}
	span := uint64(hi) - uint64(lo)
	t.shift = uint(max(bits.Len64(span)-bits.Len64(rankParts-1), 0))
	t.cum = zeroed(t.cum, int(span+1))
	t.base = zeroed(t.base, int(span>>t.shift+1))
	cum, base, shift := t.cum, t.base, t.shift
	for _, run := range runs {
		for _, k := range run {
			i := uint64(k) - uint64(lo)
			cum[i]++ // wraps only in a range accumulate refuses
			base[i>>shift]++
		}
	}
	return true
}

// zeroed returns n zero values on s's storage when it holds them, else on a
// new slice of exactly n.
func zeroed[E uint16 | uint32](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// accumulate turns each range's slot counts into running sums, inclusive of
// the slot's own keys or exclusive of them, and each range's key count into
// its base. It reports false, leaving the table unusable, when a range holds
// more keys than a 2-byte slot counts.
func (t *rankTable) accumulate(exclusive bool) bool {
	var below uint32
	for p, c := range t.base {
		if c > math.MaxUint16 {
			return false
		}
		win := t.cum[p<<t.shift : min((p+1)<<t.shift, len(t.cum))]
		var run uint16
		if exclusive {
			for i, k := range win {
				win[i] = run
				run += k
			}
		} else {
			for i := range win {
				run += win[i]
				win[i] = run
			}
		}
		t.base[p] = below
		below += c
	}
	return true
}

// rank is the number of keys at most the key in slot i.
func (t *rankTable) rank(i uint64) int64 {
	return int64(t.base[i>>t.shift]) + int64(t.cum[i])
}

// bounds returns the ranks either side of the keys in [lo, hi]: from is the
// number of keys below lo, to the number at most hi, and to − from the keys
// within. lo − 1 is taken only above the least key, so it cannot wrap; a hi
// below the least key wraps its slot past the last.
func (t *rankTable) bounds(lo, hi join.Key) (from, to int64) {
	hi = min(hi, t.hi)
	i := uint64(hi - t.lo)
	if hi < lo || i >= uint64(len(t.cum)) {
		return 0, 0
	}
	if lo > t.lo {
		from = t.rank(uint64(lo - 1 - t.lo))
	}
	return from, t.rank(i)
}

// probeCount counts the matches of one chunk of the other relation. With R2
// resident a probe key counts over cond's JoinableRange; with R1 resident
// over the converse range, the R1 keys whose JoinableRange holds it.
func (t *rankTable) probeCount(keys []join.Key, cond join.Condition, r1 bool) (out int64) {
	if len(t.cum) == 0 {
		return 0
	}
	within := func(lo, hi join.Key) int64 {
		from, to := t.bounds(lo, hi)
		return to - from
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
// int64 extreme, and none past it for a strict one.
func converseRange(op join.Op, b join.Key) (lo, hi join.Key) {
	switch {
	case op == join.Less && b > math.MinInt64:
		return math.MinInt64, b - 1
	case op == join.LessEq:
		return math.MinInt64, b
	case op == join.Greater && b < math.MaxInt64:
		return b + 1, math.MaxInt64
	case op == join.GreaterEq:
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
