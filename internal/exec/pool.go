package exec

import (
	"math/bits"
	"sync"

	"ewh/internal/join"
	"ewh/internal/partition"
)

// The engine's big transient buffers — the flat shuffled relations and each
// mapper's recorded routes — live only between a Run's shuffle and the end of
// its reduce phase, so they are recycled across calls. A pooled buffer is
// returned unzeroed: the shuffle overwrites every slot (the offsets cover the
// buffer exactly), which is what lets the hot path skip the 10s-of-MB memclr
// a fresh make would pay. That is safe because every pooled element type is
// pointer-free (join.Key is an int64): a stale slot keeps nothing reachable.

// keyPools holds recycled key buffers by size class (keyClass): a request
// is served only from its own class, so a small relation never pins a big
// buffer and a big one never pops and drops a small buffer to allocate
// afresh. One pool for every size would do both, and the heap a run holds
// would then depend on the order its goroutines happened to recycle and
// reuse buffers in.
var keyPools [4 * 64]sync.Pool // stores *[]join.Key

// minKeyBuffer is the smallest pooled capacity; smaller requests round up.
const minKeyBuffer = 64

// keyClass returns the size class of a request for n keys and the capacity
// its buffers have: four classes per power of two, so a buffer is at most
// 25 % larger than the request it serves.
func keyClass(n int) (class, size int) {
	n = max(n, minKeyBuffer)
	b := bits.Len(uint(n - 1)) // 2^(b-1) < n <= 2^b
	step := 1 << (b - 3)
	q := (n + step - 1) / step // 5..8
	return 4*b + q - 5, q * step
}

// GetKeyBuffer returns a pooled []join.Key of length n. The contents are
// unzeroed — callers must overwrite every slot (the engine's scatter does;
// netexec's decode fills it from the wire). Release with PutKeyBuffer.
func GetKeyBuffer(n int) []join.Key {
	class, size := keyClass(n)
	if v := keyPools[class].Get(); v != nil {
		return (*v.(*[]join.Key))[:n]
	}
	return make([]join.Key, n, size)
}

// PutKeyBuffer recycles a buffer obtained from GetKeyBuffer. The caller must
// not retain any slice of it. A buffer whose capacity is not a class size
// (one GetKeyBuffer did not allocate) is left to the collector.
func PutKeyBuffer(s []join.Key) {
	if cap(s) < minKeyBuffer {
		return
	}
	class, size := keyClass(cap(s))
	if size != cap(s) {
		return
	}
	s = s[:0]
	keyPools[class].Put(&s)
}

var batchPool sync.Pool // stores *[]partition.RouteBatch

func getBatches(mappers int) []partition.RouteBatch {
	if v := batchPool.Get(); v != nil {
		b := *v.(*[]partition.RouteBatch)
		if cap(b) >= mappers {
			return b[:mappers]
		}
	}
	return make([]partition.RouteBatch, mappers)
}

func putBatches(b []partition.RouteBatch) {
	batchPool.Put(&b)
}
