package localjoin

import (
	"ewh/internal/join"
)

// This file is the dense window, the direct-address form of an equi resident
// side: a count per key over the span of the keys counted so far, where a
// chunk counts in on arrival (one increment a key) and a probe key is one
// bounds-checked load. The regions a plan routes are key ranges, so a
// worker's block is usually dense. A side whose span costs more than the
// budget, denseSpan slots a key, seals into the sorted block instead, as a
// band or inequality side past the rank table's budget does (Resident). A
// sealed window is immutable, so once published many jobs can probe one
// shared window at once (see BuildCache, whose lock publishes it).

// denseSpan bounds the dense window at this many count slots per key: the
// directBytesPerKey budget at 4 B a slot.
const denseSpan = directBytesPerKey / 4

// EquiLike reports whether cond is a pure-equality predicate — join.Equi or
// a zero-width band — i.e. the conditions a dense window counts. All other
// conditions need an ordered window: the rank table's or the merge sweep's.
func EquiLike(cond join.Condition) bool {
	switch c := cond.(type) {
	case join.Equi:
		return true
	case join.Band:
		return c.Beta == 0
	}
	return false
}

// denseWindow is the dense form: counts[i] is the multiplicity of key base+i.
// Offsets are taken in uint64 on the wrapping key ring, so a window near
// either end of the int64 domain cannot overflow.
type denseWindow struct {
	base   join.Key
	counts []uint32
	lo, hi join.Key // least and greatest key counted
	n      uint64   // keys counted
}

// MemBytes is the window's storage, 4 B a slot: the unit BuildCache charges.
func (d *denseWindow) MemBytes() int64 { return 4 * int64(cap(d.counts)) }

// off is k's slot offset from base: in the window exactly when below
// len(counts).
func (d *denseWindow) off(k join.Key) uint64 { return uint64(k) - uint64(d.base) }

// grow returns the least and greatest key and the key count the window would
// have with m more keys over [lo, hi] counted in, and whether its span then
// stays within denseSpan slots per key. No keys always fit.
func (d *denseWindow) grow(lo, hi join.Key, m int) (join.Key, join.Key, uint64, bool) {
	if d.n > 0 {
		lo, hi = min(lo, d.lo), max(hi, d.hi)
	}
	n := d.n + uint64(m)
	return lo, hi, n, m == 0 || uint64(hi)-uint64(lo) < denseSpan*n
}

// count counts the keys of runs in, extending the window at most once for all
// of them; lo, hi and n are what grow returned for them.
func (d *denseWindow) count(runs [][]join.Key, lo, hi join.Key, n uint64) {
	if n == d.n {
		return
	}
	if size := uint64(len(d.counts)); d.off(lo) >= size || d.off(hi) >= size {
		d.extend(lo, hi, n)
	}
	counts, base := d.counts, uint64(d.base)
	for _, run := range runs {
		for _, k := range run {
			counts[uint64(k)-base]++
		}
	}
	d.lo, d.hi, d.n = lo, hi, n
}

// add counts keys in and reports true or, when they would stretch the span
// past denseSpan slots per key counted, reports false and changes nothing.
func (d *denseWindow) add(keys []join.Key) bool {
	runs := [][]join.Key{keys}
	lo, hi, n, ok := d.grow(keyRange(runs))
	if ok {
		d.count(runs, lo, hi, n)
	}
	return ok
}

// extend reallocates the window to cover [lo, hi]. It grows by at least a
// quarter, up to denseSpan slots per key, so keys ascending over many chunks
// are copied at most five times each; the slack goes on the side the keys grow
// towards. Not by half or more: the common extension is a later chunk reaching
// just past the edges of the first, and the slack stays empty.
func (d *denseWindow) extend(lo, hi join.Key, n uint64) {
	size := max(uint64(hi)-uint64(lo)+1, min(uint64(len(d.counts))*5/4, denseSpan*n))
	base := lo
	if d.n > 0 && lo < d.lo {
		base = join.Key(uint64(hi) - (size - 1))
	}
	counts := make([]uint32, size)
	if d.n > 0 {
		from := d.off(d.lo)
		copy(counts[uint64(d.lo)-uint64(base):], d.counts[from:from+uint64(d.hi)-uint64(d.lo)+1])
	}
	d.base, d.counts = base, counts
}

// appendKeys appends every key the window counts to dst, in key order.
func (d *denseWindow) appendKeys(dst []join.Key) []join.Key {
	for i, m := range d.counts {
		for range m {
			dst = append(dst, d.base+join.Key(i))
		}
	}
	return dst
}

// probe sums the multiplicities of keys; a key outside the window counts 0.
func (d *denseWindow) probe(keys []join.Key) (out int64) {
	counts, base := d.counts, uint64(d.base)
	for _, k := range keys {
		if i := uint64(k) - base; i < uint64(len(counts)) {
			out += int64(counts[i])
		}
	}
	return out
}

// Build is an equi-join count through one resident side, kept for callers
// outside this module's workers (the repository benchmark times its two
// halves): Insert each chunk of relation 1, Seal, then ProbeCount relation 2.
// It is a Resident under join.Equi, so it seals into the dense window or,
// past its budget, the sorted block.
type Build struct {
	side   *Resident
	chunks [][]join.Key
}

// NewBuild returns an empty build.
func NewBuild() *Build { return &Build{side: NewResident(join.Equi{}, true, nil, nil)} }

// Insert adds one chunk of keys; chunk boundaries do not affect the count.
// The build keeps the slice until Seal returns, so the caller leaves it
// untouched until then. Must not be called after Seal.
func (b *Build) Insert(keys []join.Key) { b.chunks = append(b.chunks, keys) }

// Seal finishes the build; ProbeCount is valid from here on.
func (b *Build) Seal() { b.side.Seal(b.chunks...) }

// ProbeCount returns the equi-join matches of keys with the sealed build. It
// may reorder keys; concurrent calls on distinct key slices are safe.
func (b *Build) ProbeCount(keys []join.Key) int64 { return b.side.Finish(keys) }
