package localjoin

import (
	"ewh/internal/join"
)

// This file is the dense window, the direct-address form of an equi resident
// side: a count per key over the sealed side's span, counted once at Seal,
// where a probe key is one bounds-checked load. The regions a plan routes are
// key ranges, so a worker's block is usually dense. A side whose span costs
// more than the budget seals into the sorted block instead, as a band or
// inequality side past the rank table's budget does (FormOf). A sealed window
// is immutable, so once published many jobs can probe one shared window at
// once (see BuildCache, whose lock publishes it).

// denseWindow is the dense form: counts[i] is the multiplicity of key base+i.
// Offsets are taken in uint64 on the wrapping key ring, so a window near
// either end of the int64 domain cannot overflow.
type denseWindow struct {
	base   join.Key
	counts []uint32
}

// MemBytes is the window's storage, 4 B a slot: the unit BuildCache charges.
func (d *denseWindow) MemBytes() int64 { return 4 * int64(len(d.counts)) }

// newDenseWindow counts the keys of runs, n in all over [lo, hi], into a
// window of exactly their span; no keys take no slots.
func newDenseWindow(runs [][]join.Key, lo, hi join.Key, n int) *denseWindow {
	var counts []uint32
	if n > 0 {
		counts = make([]uint32, uint64(hi)-uint64(lo)+1)
	}
	for _, run := range runs {
		for _, k := range run {
			counts[uint64(k)-uint64(lo)]++
		}
	}
	return &denseWindow{base: lo, counts: counts}
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
