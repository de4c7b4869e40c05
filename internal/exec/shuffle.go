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

// shuffled is one relation after the shuffle: worker w's tuples are the
// contiguous slice flat[off[w]:off[w+1]]. The whole relation lives in a
// single exactly-sized allocation, so the reduce phase reads (and may sort in
// place) per-worker slices with zero concatenation copies.
type shuffled[T any] struct {
	flat []T
	off  []int // len j+1
}

func (s *shuffled[T]) worker(w int) []T { return s.flat[s.off[w]:s.off[w+1]] }

// shuffleRelation routes items to j workers with a two-pass shuffle across
// mappers parallel shards. keys[i] is the routing key of items[i]; for bare
// key relations the two slices alias. Pass 1 batch-routes each shard exactly
// once, recording the receiver lists compactly (with per-worker counts
// tallied inside the routing loop); a barrier then computes exact
// per-(mapper, worker) write offsets; pass 2 replays the recorded routes and
// scatters items into disjoint ranges of one flat buffer. Recording routes
// instead of re-routing keeps randomized schemes deterministic and pays the
// routing cost once.
//
// batches provides per-mapper routing storage (reused across relations and,
// via the pool, across runs); alloc provides the flat buffer and may return
// unzeroed pooled memory — the scatter overwrites every slot.
func shuffleRelation[T any](items []T, keys []join.Key, j, mappers int,
	rngs []*stats.RNG, batches []partition.RouteBatch, route routeFn,
	alloc func(n int) []T) shuffled[T] {

	var wg sync.WaitGroup
	for mi := 0; mi < mappers; mi++ {
		wg.Add(1)
		go func(mi int) {
			defer wg.Done()
			lo, hi := shard(len(keys), mappers, mi)
			b := &batches[mi]
			b.Reset(j, hi-lo) // exact Routes capacity for fan-out-1 schemes
			route(keys[lo:hi], rngs[mi], b)
		}(mi)
	}
	wg.Wait()

	out := shuffled[T]{off: make([]int, j+1)}
	for w := 0; w < j; w++ {
		total := 0
		for mi := 0; mi < mappers; mi++ {
			total += batches[mi].Counts[w]
		}
		out.off[w+1] = out.off[w] + total
	}
	out.flat = alloc(out.off[j])

	// pos[mi*j+w] is mapper mi's next write index inside worker w's range;
	// mappers write disjoint ranges, so pass 2 needs no synchronization.
	pos := make([]int, mappers*j)
	for w := 0; w < j; w++ {
		c := out.off[w]
		for mi := 0; mi < mappers; mi++ {
			pos[mi*j+w] = c
			c += batches[mi].Counts[w]
		}
	}
	for mi := 0; mi < mappers; mi++ {
		wg.Add(1)
		go func(mi int) {
			defer wg.Done()
			lo, _ := shard(len(keys), mappers, mi)
			scatter(out.flat, pos[mi*j:(mi+1)*j], items[lo:], &batches[mi])
		}(mi)
	}
	wg.Wait()
	return out
}

// shufflePair runs the shuffle phase for both relations of a join — the
// exact phase Run performs before its reduce — with the two relations
// shuffled CONCURRENTLY: their routing and scatter passes are independent
// (separate batch storage, separate RNG streams split deterministically from
// cfg.Seed), so on multi-core runners relation 2's routing overlaps relation
// 1's scatter instead of waiting for it. keys1[i] is the routing key of
// items1[i] (aliasing for bare-key relations); alloc provides the flat
// buffers, typically from the pools.
func shufflePair[T1, T2 any](items1 []T1, keys1 []join.Key, items2 []T2, keys2 []join.Key,
	scheme partition.Scheme, cfg Config,
	alloc1 func(int) []T1, alloc2 func(int) []T2) (shuffled[T1], shuffled[T2]) {

	var s1 shuffled[T1]
	var s2 shuffled[T2]
	var wg sync.WaitGroup
	wg.Add(2)
	shufflePairAsync(items1, keys1, items2, keys2, scheme, cfg, alloc1, alloc2,
		func(s shuffled[T1]) { s1 = s; wg.Done() },
		func(s shuffled[T2]) { s2 = s; wg.Done() })
	wg.Wait()
	return s1, s2
}

// shufflePairAsync is shufflePair's streaming form: it returns immediately
// and calls done1/done2 (from the shuffling goroutines) the moment each
// relation's scatter completes, so a consumer can start draining relation
// 1 — e.g. writing its worker blocks onto sockets — while relation 2 is
// still routing. The callbacks must be cheap or hand off to another
// goroutine; per-mapper batch storage is recycled after both complete.
func shufflePairAsync[T1, T2 any](items1 []T1, keys1 []join.Key, items2 []T2, keys2 []join.Key,
	scheme partition.Scheme, cfg Config,
	alloc1 func(int) []T1, alloc2 func(int) []T2,
	done1 func(shuffled[T1]), done2 func(shuffled[T2])) {

	j := scheme.Workers()
	mappers := cfg.Mappers
	master := stats.NewRNG(cfg.Seed)
	rngs1 := mapperRNGs(master, mappers)
	rngs2 := mapperRNGs(master, mappers)
	b1, b2 := getBatches(mappers), getBatches(mappers)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		done1(shuffleRelation(items1, keys1, j, mappers, rngs1, b1, routeFor(scheme, 1), alloc1))
	}()
	go func() {
		defer wg.Done()
		done2(shuffleRelation(items2, keys2, j, mappers, rngs2, b2, routeFor(scheme, 2), alloc2))
	}()
	go func() {
		wg.Wait()
		putBatches(b1)
		putBatches(b2)
	}()
}

// KeyShuffle is the exported view of one shuffled bare-key relation: worker
// w's tuples are the contiguous slice Worker(w) of a single exactly-sized
// flat allocation, so a consumer (the reduce phase, or netexec's coordinator
// streaming blocks onto sockets) reads per-worker data with zero
// concatenation copies. Obtain pairs with ShufflePair; call Release when the
// data has been consumed to recycle the flat buffer.
type KeyShuffle struct {
	s shuffled[join.Key]
}

// Workers returns the number of per-worker slices.
func (k *KeyShuffle) Workers() int { return len(k.s.off) - 1 }

// Worker returns worker w's contiguous tuple block. The slice aliases the
// shuffle's flat buffer: it is valid until Release and may be sorted in
// place by an owning consumer.
func (k *KeyShuffle) Worker(w int) []join.Key { return k.s.worker(w) }

// Total returns the total routed tuple count across workers (the relation's
// network-tuple contribution; replication makes it exceed the input size).
func (k *KeyShuffle) Total() int { return k.s.off[len(k.s.off)-1] }

// Release recycles the flat buffer. No Worker slice may be used afterwards.
func (k *KeyShuffle) Release() {
	PutKeyBuffer(k.s.flat)
	k.s = shuffled[join.Key]{}
}

// ShufflePair routes both relations of a join to scheme's workers with the
// engine's two-pass zero-copy shuffle and returns the per-worker blocks.
// This is Run's shuffle phase made reusable (the benchmark's join probe times
// it on its own). Deterministic for a fixed cfg.Seed and cfg.Mappers.
func ShufflePair(r1, r2 []join.Key, scheme partition.Scheme, cfg Config) (*KeyShuffle, *KeyShuffle) {
	cfg.defaults()
	s1, s2 := shufflePair(r1, r1, r2, r2, scheme, cfg, GetKeyBuffer, GetKeyBuffer)
	return &KeyShuffle{s1}, &KeyShuffle{s2}
}

// ShuffleKeys routes one bare-key relation to scheme's workers on the given
// side (rel 1 routes with RouteBatchR1, rel 2 with RouteBatchR2) — the
// single-relation form of ShufflePair. It is what a peer worker uses to
// re-shuffle its stage-1 matches by a broadcast plan (rel 1, Mappers 1 so
// the routing is identical on any worker), and what the stage driver uses to
// scatter a later stage's right relation. Deterministic for a fixed cfg.
func ShuffleKeys(keys []join.Key, scheme partition.Scheme, rel int, cfg Config) *KeyShuffle {
	cfg.defaults()
	rngs := mapperRNGs(stats.NewRNG(cfg.Seed), cfg.Mappers)
	batches := getBatches(cfg.Mappers)
	s := shuffleRelation(keys, keys, scheme.Workers(), cfg.Mappers, rngs, batches, routeFor(scheme, rel), GetKeyBuffer)
	putBatches(batches)
	return &KeyShuffle{s}
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

// Workers returns the receiver-side parallelism (the scheme's worker count).
func (cs *ChunkStream) Workers() int { return cs.workers }

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
	return chunkedRelation(keys, scheme, rel, cfg, mapperRNGs(stats.NewRNG(cfg.Seed), cfg.Mappers))
}

// chunkScatter is scatter against per-worker local buffers instead of
// disjoint ranges of one flat buffer: the same route replay, the same
// emission order per worker, so a worker's chunks concatenate to exactly
// what the flat scatter would have put in its range.
func chunkScatter(bufs [][]join.Key, p []int, items []join.Key, b *partition.RouteBatch) {
	routes := b.Routes
	switch {
	case b.Fanout == 1:
		items = items[:len(routes)]
		for ti, w := range routes {
			bufs[w][p[w]] = items[ti]
			p[w]++
		}
	case b.Fanout > 1:
		f := b.Fanout
		for ri, ti := 0, 0; ri < len(routes); ri, ti = ri+f, ti+1 {
			item := items[ti]
			for _, w := range routes[ri : ri+f] {
				bufs[w][p[w]] = item
				p[w]++
			}
		}
	default:
		ri := 0
		for ti, n := range b.Lens {
			item := items[ti]
			for _, w := range routes[ri : ri+int(n)] {
				bufs[w][p[w]] = item
				p[w]++
			}
			ri += int(n)
		}
	}
}

// ShufflePairChunked is ShufflePair's streaming form for chunk-consuming
// transports: both relations route with the SAME deterministic RNG streams
// as shufflePairAsync (all relation-1 mapper streams split before relation
// 2's), but each resolves to a ChunkStream instead of a flat KeyShuffle.
func ShufflePairChunked(r1, r2 []join.Key, scheme partition.Scheme, cfg Config) (*ChunkStream, *ChunkStream) {
	cfg.defaults()
	master := stats.NewRNG(cfg.Seed)
	rngs1 := mapperRNGs(master, cfg.Mappers)
	rngs2 := mapperRNGs(master, cfg.Mappers)
	return chunkedRelation(r1, scheme, 1, cfg, rngs1), chunkedRelation(r2, scheme, 2, cfg, rngs2)
}

// chunkedRelation is ShuffleKeysChunked's core with caller-supplied RNG
// streams (so paired relations split from one master, matching the flat
// pair shuffle).
func chunkedRelation(keys []join.Key, scheme partition.Scheme, rel int, cfg Config, rngs []*stats.RNG) *ChunkStream {
	j := scheme.Workers()
	route := routeFor(scheme, rel)
	cs := newChunkStream(j, cfg.Mappers)
	go func() {
		batches := getBatches(cfg.Mappers)
		var wg sync.WaitGroup
		for mi := 0; mi < cfg.Mappers; mi++ {
			wg.Add(1)
			go func(mi int) {
				defer wg.Done()
				lo, hi := shard(len(keys), cfg.Mappers, mi)
				b := &batches[mi]
				b.Reset(j, hi-lo)
				route(keys[lo:hi], rngs[mi], b)
				bufs := make([][]join.Key, j)
				for w := 0; w < j; w++ {
					if b.Counts[w] > 0 {
						bufs[w] = GetKeyBuffer(b.Counts[w])
					}
				}
				chunkScatter(bufs, make([]int, j), keys[lo:hi], b)
				for w := 0; w < j; w++ {
					if bufs[w] != nil {
						cs.ch[w] <- KeyChunk{Mapper: mi, Keys: bufs[w]}
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

// scatter places one mapper's shard into the flat buffer following the
// routes recorded in pass 1. p is the mapper's per-worker write cursor set;
// items is the shard (indexed from 0).
func scatter[T any](flat []T, p []int, items []T, b *partition.RouteBatch) {
	routes := b.Routes
	switch {
	case b.Fanout == 1:
		// One receiver per key: routes[i] pairs with items[i] directly. The
		// reslice pins len(items) == len(routes) so the items access needs no
		// bounds check inside the loop.
		items = items[:len(routes)]
		for ti, w := range routes {
			idx := p[w]
			flat[idx] = items[ti]
			p[w] = idx + 1
		}
	case b.Fanout > 1:
		f := b.Fanout
		for ri, ti := 0, 0; ri < len(routes); ri, ti = ri+f, ti+1 {
			item := items[ti]
			for _, w := range routes[ri : ri+f] {
				flat[p[w]] = item
				p[w]++
			}
		}
	default:
		ri := 0
		for ti, n := range b.Lens {
			item := items[ti]
			for _, w := range routes[ri : ri+int(n)] {
				flat[p[w]] = item
				p[w]++
			}
			ri += int(n)
		}
	}
}
