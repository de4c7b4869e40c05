package exec

import (
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

var keySlicePool sync.Pool // stores *[]join.Key

// GetKeyBuffer returns a pooled []join.Key of length n. The contents are
// unzeroed — callers must overwrite every slot (the engine's scatter does;
// netexec's decode fills it from the wire). Release with PutKeyBuffer.
func GetKeyBuffer(n int) []join.Key {
	if v := keySlicePool.Get(); v != nil {
		s := *v.(*[]join.Key)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]join.Key, n)
}

// PutKeyBuffer recycles a buffer obtained from GetKeyBuffer. The caller must
// not retain any slice of it.
func PutKeyBuffer(s []join.Key) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	keySlicePool.Put(&s)
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
