package exec

import (
	"sync"

	"ewh/internal/partition"
)

// batchPool recycles each mapper's recorded routes. A RouteBatch carries
// Groups/Counts slices that partition resizes in Reset, so the batches keep
// an object pool of their own rather than a bufpool size class.
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
