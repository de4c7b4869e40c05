package localjoin

import (
	"ewh/internal/bufpool"
	"ewh/internal/join"
	"ewh/internal/keysort"
)

// This file is the hash local-join engine: a multiplicity index over one
// relation's keys with an incremental insert API. The motivating shape is the
// pipelined wire (the streaming scatter): a worker feeds each decoded
// sub-block into Insert the moment it lands instead of joining only after the
// whole relation assembled. One goroutine inserts into, seals and probes a
// build; a sealed Build is immutable, so once published many jobs can probe
// one shared build at once (see BuildCache, whose lock publishes it).
//
// A Build takes one of two forms. Every build starts dense: a direct-address
// count array over the span of the keys inserted so far, where an insert is
// one increment and a probe one bounds-checked load. The regions a plan
// routes are key ranges, so a worker's block is usually dense. Once the span
// would exceed denseSpan slots per key inserted, the build converts, once,
// to the sparse form: a partitioned radix-hash table. A Resident judges that
// on its whole block instead (insertHeld): chunk by chunk, the keys received
// so far can be too few for a span the block fills.
//
// Partitioning reuses keysort's radix digit — the low byte of the
// sign-biased key (keysort.Digit at shift 0), the byte that varies most on
// the clustered key domains the sort is tuned for — so sort and hash engines
// agree digit-for-digit on what a partition is. Each partition is an
// open-addressing multiplicity table (linear probing, power-of-two capacity).
// Band and inequality conditions take the rank table (ranktable.go) or the
// merge sweep instead: their joinable windows span partitions, which is
// exactly what a hash layout destroys (see DESIGN.md "Local join engines").

// enginePartitions is the radix fan-out: one partition per value of the
// partitioning digit.
const enginePartitions = 256

// partShift selects the partitioning digit: the least-significant byte of
// the sign-biased key.
const partShift = 0

// denseSpan bounds the dense form at this many count slots per key: the
// directBytesPerKey budget at 4 B a slot.
const denseSpan = directBytesPerKey / 4

// EquiLike reports whether cond is a pure-equality predicate — join.Equi or
// a zero-width band — i.e. the conditions the hash engine can serve. All
// other conditions need an ordered window: the rank table's or the merge
// sweep's.
func EquiLike(cond join.Condition) bool {
	switch c := cond.(type) {
	case join.Equi:
		return true
	case join.Band:
		return c.Beta == 0
	}
	return false
}

// hashKey spreads the full key over 64 bits for the in-partition slot
// choice. The partition already consumed the low radix digit, so the slot
// hash must draw on every byte; a Fibonacci multiply with an avalanche shift
// does, cheaply.
func hashKey(k join.Key) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return h ^ (h >> 29)
}

// buildPart is one radix partition of a sparse Build: an open-addressing
// multiplicity table. mult[i] == 0 marks an empty slot, so no sentinel key
// is reserved; len(keys) is a power of two.
type buildPart struct {
	keys []join.Key
	mult []uint32
	used int
}

// insert adds m copies of k, growing at 3/4 load.
func (p *buildPart) insert(k join.Key, m uint32) {
	if 4*(p.used+1) > 3*len(p.keys) {
		p.grow()
	}
	mask := uint64(len(p.keys) - 1)
	h := hashKey(k) & mask
	for {
		if p.mult[h] == 0 {
			p.keys[h] = k
			p.mult[h] = m
			p.used++
			return
		}
		if p.keys[h] == k {
			p.mult[h] += m
			return
		}
		h = (h + 1) & mask
	}
}

func (p *buildPart) grow() {
	newCap := 16
	if len(p.keys) > 0 {
		newCap = 2 * len(p.keys)
	}
	oldKeys, oldMult := p.keys, p.mult
	p.keys = make([]join.Key, newCap)
	p.mult = make([]uint32, newCap)
	mask := uint64(newCap - 1)
	for i, m := range oldMult {
		if m == 0 {
			continue
		}
		k := oldKeys[i]
		h := hashKey(k) & mask
		for p.mult[h] != 0 {
			h = (h + 1) & mask
		}
		p.keys[h] = k
		p.mult[h] = m
	}
}

// lookup returns k's multiplicity; zero when absent.
func (p *buildPart) lookup(k join.Key) uint32 {
	if len(p.keys) == 0 {
		return 0
	}
	mask := uint64(len(p.keys) - 1)
	h := hashKey(k) & mask
	for {
		m := p.mult[h]
		if m == 0 {
			return 0
		}
		if p.keys[h] == k {
			return m
		}
		h = (h + 1) & mask
	}
}

// denseCounts is the dense form: counts[i] is the multiplicity of key base+i.
// Offsets are taken in uint64 on the wrapping key ring, so a window near
// either end of the int64 domain cannot overflow.
type denseCounts struct {
	base   join.Key
	counts []uint32
	lo, hi join.Key // least and greatest key inserted
	n      uint64   // keys inserted
}

// off is k's slot offset from base: in the window exactly when below
// len(counts).
func (d *denseCounts) off(k join.Key) uint64 { return uint64(k) - uint64(d.base) }

// add counts the keys of runs in and reports true or, when they would stretch
// the span past denseSpan slots per key counted, reports false and changes
// nothing. The runs are judged together: the window extends at most once for
// all of them.
func (d *denseCounts) add(runs ...[]join.Key) bool {
	lo, hi, m := keyRange(runs)
	if m == 0 {
		return true
	}
	if d.n > 0 {
		lo, hi = min(lo, d.lo), max(hi, d.hi)
	}
	n := d.n + uint64(m)
	if uint64(hi)-uint64(lo) >= denseSpan*n {
		return false
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
	return true
}

// extend reallocates the window to cover [lo, hi]. It grows by at least a
// quarter, up to denseSpan slots per key, so keys ascending over many chunks
// are copied at most five times each; the slack goes on the side the keys grow
// towards. Not by half or more: the common extension is a later chunk reaching
// just past the edges of the first, and the slack stays empty.
func (d *denseCounts) extend(lo, hi join.Key, n uint64) {
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

// probe sums the multiplicities of keys; a key outside the window counts 0.
func (d *denseCounts) probe(keys []join.Key) (out int64) {
	counts, base := d.counts, uint64(d.base)
	for _, k := range keys {
		if i := uint64(k) - base; i < uint64(len(counts)) {
			out += int64(counts[i])
		}
	}
	return out
}

// Build is an incrementally built multiplicity index over one relation's
// keys, owned by one goroutine: Insert accepts each arriving chunk,
// ProbeCount counts against whatever has been inserted so far, and Seal
// finishes the build, after which it is immutable and any number of
// goroutines may probe it.
type Build struct {
	dense denseCounts                  // the dense form, while parts is nil
	parts *[enginePartitions]buildPart // the sparse form, from toSparse on
	bytes int64                        // set by Seal
}

// NewBuild returns an empty build, in the dense form. Its tables allocate as
// keys arrive, so an empty or tiny relation costs almost nothing.
func NewBuild() *Build { return &Build{} }

// MemBytes estimates the build's retained table bytes — the unit BuildCache
// budgets in. Call after Seal.
func (b *Build) MemBytes() int64 { return b.bytes }

// partitionRuns radix-partitions keys by their partitioning digit into
// scratch (a stable counting scatter: arrival order is preserved within
// each partition) and returns the per-partition end offsets. Run d occupies
// scratch[off[d]-count[d] : off[d]].
func partitionRuns(keys, scratch []join.Key) (off [enginePartitions]int32) {
	var count [enginePartitions]int32
	for _, k := range keys {
		count[keysort.Digit(k, partShift)]++
	}
	var sum int32
	for d := range off {
		sum += count[d]
		off[d] = sum
	}
	pos := off
	for d := range pos {
		pos[d] -= count[d]
	}
	for _, k := range keys {
		d := keysort.Digit(k, partShift)
		scratch[pos[d]] = k
		pos[d]++
	}
	return off
}

// Insert adds one chunk of build-side keys. It may be called once with the
// whole relation or repeatedly with arriving sub-blocks; chunk boundaries do
// not affect what the finished build counts. A dense build counts the chunk
// in, or converts to the sparse form first when the chunk would leave it too
// sparse. Must not be called after Seal.
func (b *Build) Insert(keys []join.Key) {
	if !b.insert(keys) {
		b.toSparse()
		b.insert(keys)
	}
}

// insert counts keys into the build's current form and reports true, or, when
// a dense build would leave its bound, reports false and changes nothing. A
// sparse build radix-partitions the chunk, so each partition's table is walked
// once per chunk, not once per key.
func (b *Build) insert(keys []join.Key) bool {
	if b.parts == nil {
		return b.dense.add(keys)
	}
	if len(keys) == 0 {
		return true
	}
	scratch := bufpool.Keys.Get(len(keys))
	off := partitionRuns(keys, scratch)
	var lo int32
	for d, hi := range off {
		p := &b.parts[d]
		for _, k := range scratch[lo:hi] {
			p.insert(k, 1)
		}
		lo = hi
	}
	bufpool.Keys.Put(scratch)
	return true
}

// insertHeld counts the chunks a Resident held back, in arrival order, judging
// the dense bound once over all of them: a dense build that fits extends its
// window once, one that does not converts once.
func (b *Build) insertHeld(runs [][]join.Key) {
	if b.parts == nil && b.dense.add(runs...) {
		return
	}
	b.toSparse()
	for _, run := range runs {
		b.insert(run)
	}
}

// toSparse converts a dense build to the sparse form, inserting each distinct
// key once with its multiplicity. A no-op on a build already sparse.
func (b *Build) toSparse() {
	if b.parts != nil {
		return
	}
	parts := new([enginePartitions]buildPart)
	for i, m := range b.dense.counts {
		if m != 0 {
			k := b.dense.base + join.Key(i)
			parts[keysort.Digit(k, partShift)].insert(k, m)
		}
	}
	b.parts, b.dense = parts, denseCounts{}
}

// Seal finishes the build: it records MemBytes, and from here on the build
// is immutable, so it may be shared by concurrent probers and cached across
// jobs once something that synchronizes (the build cache's cacheAdd)
// publishes it.
func (b *Build) Seal() {
	if b.parts == nil {
		b.bytes = int64(cap(b.dense.counts)) * 4
		return
	}
	bytes := int64(len(b.parts)) * 8
	for i := range b.parts {
		p := &b.parts[i]
		bytes += int64(cap(p.keys))*8 + int64(cap(p.mult))*4
	}
	b.bytes = bytes
}

// ProbeCount returns the number of equi-join matches between the probe
// chunk and the build side inserted so far: sum over probe keys of the
// key's build multiplicity. It only reads the build, so concurrent probes of
// a sealed build are safe.
func (b *Build) ProbeCount(keys []join.Key) int64 {
	if b.parts == nil {
		return b.dense.probe(keys)
	}
	if len(keys) == 0 {
		return 0
	}
	scratch := bufpool.Keys.Get(len(keys))
	off := partitionRuns(keys, scratch)
	var out int64
	var lo int32
	for d, hi := range off {
		p := &b.parts[d]
		for _, k := range scratch[lo:hi] {
			out += int64(p.lookup(k))
		}
		lo = hi
	}
	bufpool.Keys.Put(scratch)
	return out
}
