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
// in 4, so within FormOf's budget the slots take at most 32 B a key and the
// range bases at most 1 KiB more. Keys are counted into their slots
// where they lie, one increment a key, and probed in arrival order:
// scattering either side by range first, to keep each range's window of the
// table in cache, was slower on sparse blocks too (EXPERIMENTS.md "Rejected
// forms"). The bases come from the one pass that turns slot counts into
// ranks, which also refuses a table a 2-byte slot cannot hold.
//
// A probe resolves a band once per chunk. Under a band of half-width β a key
// k whose range and k − β − 1 both lie in the span reads two slots, k − β − 1
// and k + β; only a key within β of an end, or outside the span, takes
// bounds, as every inequality key does.
//
// A pair join's relation 2 takes the same layout (RankOrder) under the same
// budget: counted with exclusive sums, the slots are the cursors of a
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

// keySpan is the least and greatest of a side's keys and their number; the
// zero value holds no keys.
type keySpan struct {
	lo, hi join.Key
	n      int
}

// keySpanOf reads keys once for their span.
func keySpanOf(keys []join.Key) keySpan {
	if len(keys) == 0 {
		return keySpan{}
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	return keySpan{lo, hi, len(keys)}
}

// plus is the span of s's keys and o's together.
func (s keySpan) plus(o keySpan) keySpan {
	switch {
	case o.n == 0:
		return s
	case s.n == 0:
		return o
	}
	return keySpan{min(s.lo, o.lo), max(s.hi, o.hi), s.n + o.n}
}

// newRankTable counts the keys of runs, n in all over [lo, hi], into a rank
// table. It returns nil when a range would hold more keys than a 2-byte slot
// counts; the side then stays a sorted block.
func newRankTable(runs [][]join.Key, lo, hi join.Key, n int) *rankTable {
	t := new(rankTable)
	if !t.count(runs, lo, hi, n) || !t.accumulate(n, false) {
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

// NewRankOrder counts keys into a RankOrder when the table's slots fit
// FormOf's budget, or whatever their span when anySpan (tests force the form
// with it, over spans a table can be allocated for). It returns nil for keys
// the budget or the table refuses. Release returns the buffers for the next
// call to reuse.
func NewRankOrder(keys []join.Key, anySpan bool) *RankOrder {
	s := keySpanOf(keys)
	if !anySpan && !Table.fits(s.lo, s.hi, s.n) {
		return nil
	}
	o, _ := rankOrderPool.Get().(*RankOrder)
	if o == nil {
		o = new(RankOrder)
	}
	t := &o.t
	if !t.count([][]join.Key{keys}, s.lo, s.hi, s.n) || !t.accumulate(s.n, true) {
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
		d := uint64(k) - uint64(s.lo)
		order[base[d>>shift]+uint32(cum[d])] = uint32(i)
		cum[d]++
	}
	o.order = order
	return o
}

// PartnerRuns finds the partners of R1 keys in a RankOrder under one
// condition, resolved once: Of(k) is the arrival indices of the R2 keys in
// k's joinable range, ascending by key and, among equal keys, by arrival.
// Under a band, or an equality as a band of β = 0, a key whose range lies
// inside the table reads its run's two ends from two slots.
type PartnerRuns struct {
	o    *RankOrder
	cond join.Condition
	band bandInterior // none for an inequality
}

// Runs resolves cond for the R1 keys to come. The runs are valid until
// Release.
func (o *RankOrder) Runs(cond join.Condition) PartnerRuns {
	r := PartnerRuns{o: o, cond: cond}
	switch c := cond.(type) {
	case join.Band:
		r.band = o.t.bandInterior(c.Beta)
	case join.Equi:
		r.band = o.t.bandInterior(0)
	}
	return r
}

// Of returns the partners of R1 key k.
func (r *PartnerRuns) Of(k join.Key) []uint32 {
	t := &r.o.t
	if d := uint64(k) - uint64(r.band.first); d < r.band.keys {
		return r.o.order[t.rank(d):t.rank(d+r.band.width)]
	}
	from, to := t.bounds(r.cond.JoinableRange(k))
	return r.o.order[from:to]
}

// Release hands o's buffers back; o must not be used after.
func (o *RankOrder) Release() { rankOrderPool.Put(o) }

// count lays t out for n keys over [lo, hi], reusing its slot and range
// storage where that is large enough, and counts the keys of runs into their
// slots, one increment a key; the range bases are left to accumulate, which
// also finds a slot wrapped at 65,536 keys. It reports false for more than
// rankParts × 65,535 keys, which must overflow some range's 2-byte slots:
// that side is refused before its table is allocated.
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
	cum := t.cum
	for _, run := range runs {
		for _, k := range run {
			cum[uint64(k)-uint64(lo)]++
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
// the slot's own keys or exclusive of them, and writes each range's base, the
// keys in the ranges before it: the bases come from this pass alone. It
// reports false, leaving the table unusable, when the slots cannot hold the
// n keys counted: a range holding more than 65,535 keys, or a slot that
// wrapped. 65,536 copies of one key wrap their slot to 0, which no range's
// sum shows, so the slots must sum to n.
func (t *rankTable) accumulate(n int, exclusive bool) bool {
	var below uint32
	for p := range t.base {
		win := t.cum[p<<t.shift : min((p+1)<<t.shift, len(t.cum))]
		var run uint32
		if exclusive {
			for i, k := range win {
				win[i] = uint16(run)
				run += uint32(k)
			}
		} else {
			for i, k := range win {
				run += uint32(k)
				win[i] = uint16(run)
			}
		}
		if run > math.MaxUint16 {
			return false
		}
		t.base[p] = below
		below += run
	}
	return int(below) == n
}

// rank is the number of keys at most the key in slot i. The mask drops the
// check for shifts past 63, which shift never reaches.
func (t *rankTable) rank(i uint64) uint32 {
	return t.base[i>>(t.shift&63)] + uint32(t.cum[i])
}

// bounds returns the ranks either side of the keys in [lo, hi]: from is the
// number of keys below lo, to the number at most hi, and to − from the keys
// within. lo − 1 is taken only above the least key, so it cannot wrap; a hi
// below the least key wraps its slot past the last. A band probe takes it
// only for a key within β of an end of the span, or outside it; an
// inequality probe for every key.
func (t *rankTable) bounds(lo, hi join.Key) (from, to uint32) {
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

// within is the number of keys in [lo, hi].
func (t *rankTable) within(lo, hi join.Key) int64 {
	from, to := t.bounds(lo, hi)
	return int64(to - from)
}

// bandInterior is the probe keys of a band of half-width β that read two
// slots: a key k with t.lo + β + 1 ≤ k ≤ t.hi − β has k − β − 1 and k + β in
// the span, the slots d = k − first and d + width, and counts rank(d + width)
// − rank(d) partners.
type bandInterior struct {
	first join.Key // t.lo + β + 1
	keys  uint64   // the number of interior keys: k is one iff k − first < keys
	width uint64   // 2β + 1, the slots from k − β − 1 to k + β
}

// bandInterior resolves a band of half-width beta against t. 2β + 1 cannot
// wrap a uint64, and the interior is empty unless it is below the number of
// slots, so first wraps only when there are no interior keys to test.
func (t *rankTable) bandInterior(beta int64) bandInterior {
	b := bandInterior{first: join.Key(uint64(t.lo) + uint64(beta) + 1), width: 2*uint64(beta) + 1}
	if slots := uint64(len(t.cum)); b.width < slots {
		b.keys = slots - b.width
	}
	return b
}

// probeCount counts the matches of one chunk of the other relation. With R2
// resident a probe key counts over cond's JoinableRange; with R1 resident
// over the converse range, the R1 keys whose JoinableRange holds it. A band
// is resolved once for the chunk.
func (t *rankTable) probeCount(keys []join.Key, cond join.Condition, r1 bool) (out int64) {
	if len(t.cum) == 0 {
		return 0
	}
	switch c := cond.(type) {
	case join.Band: // its own converse
		return t.bandCount(keys, c)
	case join.Inequality:
		if r1 {
			for _, k := range keys {
				out += t.within(converseRange(c.Op, k))
			}
			break
		}
		for _, k := range keys {
			out += t.within(c.JoinableRange(k))
		}
	}
	return out
}

// bandCount is probeCount under band b: an interior key reads two slots, any
// other takes bounds. The interior's slots are two views of the table, k − β
// − 1's and k + β's, each indexed by k − first and as long as the interior, so
// neither read is bounds-checked.
func (t *rankTable) bandCount(keys []join.Key, b join.Band) (out int64) {
	in := t.bandInterior(b.Beta)
	below, upto := t.cum[:in.keys], t.cum[uint64(len(t.cum))-in.keys:]
	upto = upto[:len(below)]
	base, shift := t.base, t.shift&63 // the mask drops the check for shifts past 63
	for _, k := range keys {
		if d := uint64(k) - uint64(in.first); d < uint64(len(below)) {
			out += int64(base[(d+in.width)>>shift] + uint32(upto[d]) - base[d>>shift] - uint32(below[d]))
			continue
		}
		out += t.within(b.JoinableRange(k))
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
