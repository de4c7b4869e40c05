package localjoin

import (
	"sync"
	"sync/atomic"

	"ewh/internal/join"
	"ewh/internal/keysort"
)

// This file is the hash local-join engine: a partitioned radix-hash build
// with an incremental insert API, safe for a probe goroutine running
// concurrently with the build goroutine. The motivating shape is the
// pipelined wire (CHUNK streaming scatter): a worker can feed each decoded
// sub-block into Insert the moment it lands instead of joining only after
// the whole relation assembled, and a sealed Build is immutable, so many
// jobs can probe one shared build (see BuildCache).
//
// Partitioning reuses keysort's radix digit — the low byte of the
// sign-biased key (keysort.Digit at shift 0), the byte that varies most on
// the clustered key domains the sort is tuned for — so sort and hash engines
// agree digit-for-digit on what a partition is. Each partition is an
// open-addressing multiplicity table (linear probing, power-of-two capacity)
// guarded by its own mutex while building; Seal publishes every partition
// through a per-partition atomic flag, after which probes are lock-free.
// Band and inequality conditions stay on the merge-sweep engine: their
// joinable windows span partitions, which is exactly what a hash layout
// destroys (see DESIGN.md "Local join engines").

// enginePartitions is the radix fan-out: one partition per value of the
// partitioning digit.
const enginePartitions = 256

// partShift selects the partitioning digit: the least-significant byte of
// the sign-biased key.
const partShift = 0

// EquiLike reports whether cond is a pure-equality predicate — join.Equi or
// a zero-width band — i.e. the conditions the hash engine can serve. All
// other conditions need the merge-sweep's ordered window.
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

// buildPart is one radix partition of a Build: an open-addressing
// multiplicity table. mult[i] == 0 marks an empty slot, so no sentinel key
// is reserved; len(keys) is a power of two.
type buildPart struct {
	mu     sync.Mutex
	sealed atomic.Bool
	keys   []join.Key
	mult   []uint32
	used   int
}

// insertOne adds one key under the caller-held lock, growing at 3/4 load.
func (p *buildPart) insertOne(k join.Key) {
	if 4*(p.used+1) > 3*len(p.keys) {
		p.grow()
	}
	mask := uint64(len(p.keys) - 1)
	h := hashKey(k) & mask
	for {
		if p.mult[h] == 0 {
			p.keys[h] = k
			p.mult[h] = 1
			p.used++
			return
		}
		if p.keys[h] == k {
			p.mult[h]++
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

// lookup returns k's multiplicity; zero when absent. Caller must hold the
// lock or have observed sealed.
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

// Build is an incrementally built multiplicity index over one relation's
// keys: Insert accepts each arriving chunk, ProbeCount runs against
// whatever has been inserted so far (concurrently with further inserts),
// and Seal publishes the finished immutable build for lock-free probes and
// cache sharing.
type Build struct {
	parts [enginePartitions]buildPart
	bytes int64 // set by Seal
}

// NewBuild returns an empty build. Partitions allocate lazily, so an empty
// or tiny relation costs almost nothing.
func NewBuild() *Build { return &Build{} }

// MemBytes estimates the build's retained table bytes — the unit BuildCache
// budgets in. Call after Seal.
func (b *Build) MemBytes() int64 { return b.bytes + int64(len(b.parts))*8 }

// partScratchPool recycles the chunk-partitioning scratch buffers.
var partScratchPool sync.Pool // stores *[]join.Key

func getPartScratch(n int) []join.Key {
	if v := partScratchPool.Get(); v != nil {
		s := *v.(*[]join.Key)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]join.Key, n)
}

func putPartScratch(s []join.Key) {
	partScratchPool.Put(&s)
}

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
// not affect the finished build. The chunk is radix-partitioned first, so
// each touched partition's lock is taken once per chunk, not once per key.
// Insert is safe to run concurrently with ProbeCount (but not with
// another Insert — one build goroutine owns the insert side, matching one
// socket read loop per relation). Must not be called after Seal.
func (b *Build) Insert(keys []join.Key) {
	if len(keys) == 0 {
		return
	}
	scratch := getPartScratch(len(keys))
	off := partitionRuns(keys, scratch)
	var lo int32
	for d := range off {
		hi := off[d]
		if hi == lo {
			continue
		}
		p := &b.parts[d]
		p.mu.Lock()
		for _, k := range scratch[lo:hi] {
			p.insertOne(k)
		}
		p.mu.Unlock()
		lo = hi
	}
	putPartScratch(scratch)
}

// Seal publishes the build: every partition's table is flushed under its
// lock and its sealed flag set, after which probes skip the locks entirely
// and the build is immutable — the publication contract that lets a sealed
// build be shared by any number of concurrent probers (and cached across
// jobs). Sealing an already-sealed build is a no-op.
func (b *Build) Seal() {
	var bytes int64
	for i := range b.parts {
		p := &b.parts[i]
		p.mu.Lock()
		bytes += int64(cap(p.keys))*8 + int64(cap(p.mult))*4
		p.sealed.Store(true)
		p.mu.Unlock()
	}
	b.bytes = bytes
}

// probePart sums the multiplicities of one partition's probe run, lock-free
// once the partition sealed.
func (p *buildPart) probeRun(run []join.Key) int64 {
	var out int64
	if p.sealed.Load() {
		for _, k := range run {
			out += int64(p.lookup(k))
		}
		return out
	}
	p.mu.Lock()
	for _, k := range run {
		out += int64(p.lookup(k))
	}
	p.mu.Unlock()
	return out
}

// ProbeCount returns the number of equi-join matches between the probe
// chunk and the build side inserted so far: sum over probe keys of the
// key's build multiplicity. Safe concurrently with Insert; against a
// partition that has sealed (all of them, after Seal) it takes no locks.
func (b *Build) ProbeCount(keys []join.Key) int64 {
	if len(keys) == 0 {
		return 0
	}
	scratch := getPartScratch(len(keys))
	off := partitionRuns(keys, scratch)
	var out int64
	var lo int32
	for d := range off {
		hi := off[d]
		if hi == lo {
			continue
		}
		out += b.parts[d].probeRun(scratch[lo:hi])
		lo = hi
	}
	putPartScratch(scratch)
	return out
}
