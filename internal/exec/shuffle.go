package exec

import (
	"sync"

	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/stats"
)

// routeFn batch-routes a shard of keys into b (one side of a scheme).
type routeFn func(keys []join.Key, rng *stats.RNG, b *partition.RouteBatch)

// routeFor picks scheme's batch router for one side of the join: rel 2
// routes with RouteBatchR2, anything else with RouteBatchR1.
func routeFor(scheme partition.Scheme, rel int) routeFn {
	if rel == 2 {
		return scheme.RouteBatchR2
	}
	return scheme.RouteBatchR1
}

// mapperRNGs splits one relation's per-mapper routing streams off master, in
// mapper order. A pair shuffle takes relation 1's streams before relation
// 2's; that split order is what every runtime's routes are reproducible by.
func mapperRNGs(master *stats.RNG, mappers int) []*stats.RNG {
	rngs := make([]*stats.RNG, mappers)
	for i := range rngs {
		rngs[i] = master.Split()
	}
	return rngs
}

// routeShard is the shuffle's one route pass: it batch-routes mapper mi's
// shard of keys exactly once into b, recording one group id per key beside the
// per-worker counts, and returns the shard's bounds. Recording routes instead
// of re-routing keeps randomized schemes deterministic and pays the routing
// cost once.
func routeShard(keys []join.Key, j, mappers, mi int, rng *stats.RNG,
	b *partition.RouteBatch, route routeFn) (lo, hi int) {

	lo, hi = shard(len(keys), mappers, mi)
	b.Reset(j, hi-lo)
	route(keys[lo:hi], rng, b)
	return lo, hi
}

// KeyShuffle is one shuffled key column: worker w's tuples are the contiguous
// slice Worker(w) of a single exactly-sized flat allocation, so a consumer
// (the reduce phase, or netexec's coordinator streaming blocks onto sockets)
// reads per-worker data with zero concatenation copies. A relation's companion
// column (see shuffleRelation) is a second KeyShuffle sharing the offsets.
// Call Release when the data has been consumed to recycle the flat buffer.
type KeyShuffle struct {
	flat []join.Key
	off  []int // len j+1
}

// Worker returns worker w's contiguous tuple block. The slice aliases the
// shuffle's flat buffer: it is valid until Release and may be sorted in
// place by an owning consumer.
func (k *KeyShuffle) Worker(w int) []join.Key { return k.flat[k.off[w]:k.off[w+1]] }

// Total returns the total routed tuple count across workers (the relation's
// network-tuple contribution; replication makes it exceed the input size).
func (k *KeyShuffle) Total() int { return k.off[len(k.off)-1] }

// Release recycles the flat buffer. No Worker slice may be used afterwards.
func (k *KeyShuffle) Release() {
	PutKeyBuffer(k.flat)
	*k = KeyShuffle{}
}

// cursor is one mapper's write position inside one worker's destination.
type cursor struct {
	buf []join.Key
	n   int
}

// shuffleRelation routes keys to scheme's workers on side rel with a two-pass
// shuffle across mappers parallel shards: routeShard per mapper, a barrier
// that computes exact per-(mapper, worker) write offsets, then a replay of
// the recorded routes scattering every column into disjoint ranges of its
// flat buffer. comp, when non-nil, is the relation's one companion column —
// aligned with keys and scattered by the same routes, so the returned columns
// stay aligned slot for slot (a stage pipeline's re-key column, or the pair
// drivers' row index).
func shuffleRelation(keys, comp []join.Key, scheme partition.Scheme, rel, mappers int,
	rngs []*stats.RNG) (ks, cs *KeyShuffle) {

	j, route := scheme.Workers(), routeFor(scheme, rel)
	batches := getBatches(mappers)
	defer putBatches(batches)
	var wg sync.WaitGroup
	for mi := 0; mi < mappers; mi++ {
		wg.Add(1)
		go func(mi int) {
			defer wg.Done()
			routeShard(keys, j, mappers, mi, rngs[mi], &batches[mi], route)
		}(mi)
	}
	wg.Wait()

	// first[mi*j+w] is mapper mi's first write index inside worker w's block;
	// mappers write disjoint ranges, so the scatter needs no synchronization.
	off := make([]int, j+1)
	first := make([]int, mappers*j)
	for w := 0; w < j; w++ {
		c := 0
		for mi := 0; mi < mappers; mi++ {
			first[mi*j+w] = c
			c += batches[mi].Counts[w]
		}
		off[w+1] = off[w] + c
	}
	// The pooled flat buffers come unzeroed: the scatter overwrites every slot.
	ks = &KeyShuffle{flat: GetKeyBuffer(off[j]), off: off}
	if comp != nil {
		cs = &KeyShuffle{flat: GetKeyBuffer(off[j]), off: off}
	}
	for mi := 0; mi < mappers; mi++ {
		wg.Add(1)
		go func(mi int) {
			defer wg.Done()
			lo, hi := shard(len(keys), mappers, mi)
			cur := make([]cursor, j)
			place := func(dst *KeyShuffle, column []join.Key) {
				for w := range cur {
					cur[w] = cursor{dst.Worker(w), first[mi*j+w]}
				}
				scatter(cur, column[lo:hi], &batches[mi])
			}
			place(ks, keys)
			if comp != nil {
				place(cs, comp)
			}
		}(mi)
	}
	wg.Wait()
	return ks, cs
}

// shufflePairAsync runs the shuffle phase for both relations of a join with
// the two relations shuffled CONCURRENTLY: their routing and scatter passes
// are independent (separate batch storage, separate RNG streams split
// deterministically from cfg.Seed, relation 1's before relation 2's), so
// relation 2's routing overlaps relation 1's scatter. It returns immediately
// and calls done1/done2 (from the shuffling goroutines) with the relation's
// key column and companion column (nil for a nil comp) the moment its scatter
// completes, so a consumer can start draining relation 1 — e.g. writing its
// worker blocks onto sockets — while relation 2 is still routing. The
// callbacks must be cheap or hand off to another goroutine.
func shufflePairAsync(r1, comp1, r2, comp2 []join.Key, scheme partition.Scheme, cfg Config,
	done1, done2 func(keys, comp *KeyShuffle)) {

	master := stats.NewRNG(cfg.Seed)
	rngs1 := mapperRNGs(master, cfg.Mappers)
	rngs2 := mapperRNGs(master, cfg.Mappers)
	go func() { done1(shuffleRelation(r1, comp1, scheme, 1, cfg.Mappers, rngs1)) }()
	go func() { done2(shuffleRelation(r2, comp2, scheme, 2, cfg.Mappers, rngs2)) }()
}

// ShufflePair routes both relations of a join to scheme's workers with the
// engine's two-pass zero-copy shuffle and returns the per-worker blocks.
// This is Run's shuffle phase made reusable (the benchmark's join probe times
// it on its own). Deterministic for a fixed cfg.Seed and cfg.Mappers.
func ShufflePair(r1, r2 []join.Key, scheme partition.Scheme, cfg Config) (s1, s2 *KeyShuffle) {
	cfg.defaults()
	var wg sync.WaitGroup
	wg.Add(2)
	shufflePairAsync(r1, nil, r2, nil, scheme, cfg,
		func(k, _ *KeyShuffle) { s1 = k; wg.Done() },
		func(k, _ *KeyShuffle) { s2 = k; wg.Done() })
	wg.Wait()
	return s1, s2
}

// ShuffleKeys routes one bare-key relation to scheme's workers on the given
// side (rel 1 routes with RouteBatchR1, rel 2 with RouteBatchR2) — the
// single-relation form of ShufflePair. It is what a peer worker uses to
// re-shuffle its stage-1 matches by a broadcast plan (rel 1, Mappers 1 so
// the routing is identical on any worker). Deterministic for a fixed cfg.
func ShuffleKeys(keys []join.Key, scheme partition.Scheme, rel int, cfg Config) *KeyShuffle {
	cfg.defaults()
	ks, _ := shuffleRelation(keys, nil, scheme, rel, cfg.Mappers,
		mapperRNGs(stats.NewRNG(cfg.Seed), cfg.Mappers))
	return ks
}

// KeyChunk is one mapper's routed sub-block for one worker: the tuples
// mapper Mapper routed to that worker, in route-emission order. Keys is a
// pooled buffer owned by the receiver (return with PutKeyBuffer once
// consumed). Concatenating one worker's chunks in ascending Mapper order
// reproduces, byte for byte, the worker's contiguous slice of the flat
// two-pass shuffle — which is what keeps chunk-streaming transports
// bit-identical to the in-process engine.
type KeyChunk struct {
	Mapper int
	Keys   []join.Key
}

// ChunkStream delivers one relation's routed sub-blocks per worker as the
// mappers finish routing, instead of after a whole-relation scatter barrier.
// Each worker's channel carries at most one chunk per mapper (empty
// sub-blocks are skipped) and is closed once every mapper has contributed,
// so `for c := range cs.Worker(w)` terminates. The channels are buffered to
// the mapper count: the producer NEVER blocks on a slow or absent consumer,
// which is what makes every error path drainable without deadlock.
type ChunkStream struct {
	workers int
	mappers int
	ch      []chan KeyChunk
}

func newChunkStream(workers, mappers int) *ChunkStream {
	cs := &ChunkStream{workers: workers, mappers: mappers, ch: make([]chan KeyChunk, workers)}
	for w := range cs.ch {
		cs.ch[w] = make(chan KeyChunk, mappers)
	}
	return cs
}

// Mappers returns the producer-side parallelism — the maximum number of
// chunks any worker's channel will deliver.
func (cs *ChunkStream) Mappers() int { return cs.mappers }

// Worker returns worker w's chunk channel. The consumer owns each received
// chunk's buffer.
func (cs *ChunkStream) Worker(w int) <-chan KeyChunk { return cs.ch[w] }

// Drain consumes and recycles every undelivered chunk — the cleanup path
// when a consumer abandons the stream partway. Safe to call concurrently
// with (or after) normal consumption: each chunk is received exactly once,
// whoever gets it.
func (cs *ChunkStream) Drain() {
	for w := 0; w < cs.workers; w++ {
		for c := range cs.ch[w] {
			PutKeyBuffer(c.Keys)
		}
	}
}

// ShuffleKeysChunked routes one bare-key relation exactly as ShuffleKeys
// (identical RNG streams, identical routes) but skips the global flat
// scatter: each mapper scatters its shard locally into per-worker
// exact-sized pooled buffers the moment its routing pass completes, and
// emits them on the stream. A transport that frames chunks onto sockets as
// they arrive overlaps the relation's scatter with its own writes — the
// whole-relation barrier the two-pass shuffle imposes is gone, at the same
// total scatter cost.
func ShuffleKeysChunked(keys []join.Key, scheme partition.Scheme, rel int, cfg Config) *ChunkStream {
	cfg.defaults()
	return chunkedRelation(keys, scheme, rel, cfg.Mappers, mapperRNGs(stats.NewRNG(cfg.Seed), cfg.Mappers))
}

// shufflePairChunked is shufflePairAsync's form for chunk-consuming
// transports: both relations route with the SAME deterministic RNG streams
// (all relation-1 mapper streams split before relation 2's), but each
// resolves to a ChunkStream instead of a flat KeyShuffle.
func shufflePairChunked(r1, r2 []join.Key, scheme partition.Scheme, cfg Config) (*ChunkStream, *ChunkStream) {
	master := stats.NewRNG(cfg.Seed)
	rngs1 := mapperRNGs(master, cfg.Mappers)
	rngs2 := mapperRNGs(master, cfg.Mappers)
	return chunkedRelation(r1, scheme, 1, cfg.Mappers, rngs1), chunkedRelation(r2, scheme, 2, cfg.Mappers, rngs2)
}

// chunkedRelation is shuffleRelation without the barrier: the same route
// pass and the same scatter kernel per mapper, into per-worker pooled
// buffers instead of ranges of one flat buffer.
func chunkedRelation(keys []join.Key, scheme partition.Scheme, rel, mappers int, rngs []*stats.RNG) *ChunkStream {
	j, route := scheme.Workers(), routeFor(scheme, rel)
	cs := newChunkStream(j, mappers)
	go func() {
		batches := getBatches(mappers)
		var wg sync.WaitGroup
		for mi := 0; mi < mappers; mi++ {
			wg.Add(1)
			go func(mi int) {
				defer wg.Done()
				b := &batches[mi]
				lo, hi := routeShard(keys, j, mappers, mi, rngs[mi], b, route)
				cur := make([]cursor, j)
				for w := 0; w < j; w++ {
					if b.Counts[w] > 0 {
						cur[w].buf = GetKeyBuffer(b.Counts[w])
					}
				}
				scatter(cur, keys[lo:hi], b)
				for w := 0; w < j; w++ {
					if cur[w].buf != nil {
						cs.ch[w] <- KeyChunk{Mapper: mi, Keys: cur[w].buf}
					}
				}
			}(mi)
		}
		wg.Wait()
		putBatches(batches)
		for w := 0; w < j; w++ {
			close(cs.ch[w])
		}
	}()
	return cs
}

// scatter is the shuffle's one kernel: it replays the routes b recorded for
// one mapper's shard, writing items[i] at the cursor of each receiver w of key
// i — the workers b.Table lists for the key's group — and advancing it. The
// flat shuffle points the cursors at the mapper's range inside each worker's
// block of the flat buffer; the chunked shuffle at the start of the mapper's
// own per-worker buffers. Either way worker w receives the mapper's tuples in
// route-emission order.
func scatter(cur []cursor, items []join.Key, b *partition.RouteBatch) {
	groups := b.Groups
	// The reslice pins len(items) == len(groups) so the items access needs no
	// bounds check inside the loops.
	items = items[:len(groups)]
	off, recv := b.Table.Off, b.Table.Recv
	if off == nil {
		// The identity table: a key's group is its one receiver.
		for ti, w := range groups {
			c := &cur[w]
			c.buf[c.n] = items[ti]
			c.n++
		}
		return
	}
	for ti, g := range groups {
		item := items[ti]
		for _, w := range recv[off[g]:off[g+1]] {
			c := &cur[w]
			c.buf[c.n] = item
			c.n++
		}
	}
}
