package netexec

import (
	"sync"
	"sync/atomic"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
)

// This file is the session worker's insert-while-probe feed: when a
// count-only equality job's relations arrive as CHUNK streams and the
// effective engine resolves to hash, the read loop hands each decoded
// sub-block to a per-job feeder goroutine instead of accumulating parts for
// assembly. Relation 1 chunks insert into the incremental build (and digest
// toward the relation's content key) while later chunks are still on the
// wire; at relation 1's tail the build seals — or is swapped for a cached
// build of identical content (see localjoin.BuildCache) — and relation 2
// chunks probe it the moment they decode, never materializing at all. The
// join finishes with the stream instead of starting after it.
//
// Ownership: a chunk buffer handed to feedChunk belongs to the feeder,
// which recycles it after insert/probe. The feeder terminates on every job
// exit path — EOS (results collected via finish), job failure, abort,
// connection teardown — through the idempotent stop(); sessJob.release()
// calls it, so no path leaks the goroutine or its pending buffers.

// feedEvent is one message to the feeder goroutine: a decoded chunk of
// relation rel (keys non-nil, feeder owns the buffer; mapper orders
// relation 1's content digest), or relation rel's tail marker (keys nil).
type feedEvent struct {
	rel    int
	mapper int
	keys   []join.Key
}

// feedCap bounds the feeder channel. Small on purpose: a full channel makes
// the read loop yield to the feeder (backpressure onto TCP, exactly like
// admission), which both bounds buffering and guarantees the feeder
// interleaves with the stream instead of running after it.
const feedCap = 8

// buildFeeder runs one fed job's incremental build/probe.
type buildFeeder struct {
	cache *localjoin.BuildCache
	ch    chan feedEvent
	done  chan struct{}
	stopO sync.Once

	// eosSeen is set by the read loop when it decodes the job's EOS; chunks
	// the feeder consumes before that count as overlapped work.
	eosSeen atomic.Bool

	// Feeder-goroutine state, read by others only after done closes.
	build      *localjoin.Build
	sealed     bool
	digests    [][]localjoin.ChunkDigest // per relation-1 mapper, arrival order
	pending    [][]join.Key              // rel-2 chunks arriving before rel 1 sealed
	count      int64                     // probe matches so far
	overlapped int64
	cacheHit   bool
}

// newBuildFeeder starts the feeder for a job whose relation 1 streams in
// mappers chunk sub-streams. cache may be nil (no build sharing).
func newBuildFeeder(cache *localjoin.BuildCache, mappers int) *buildFeeder {
	f := &buildFeeder{
		cache:   cache,
		ch:      make(chan feedEvent, feedCap),
		done:    make(chan struct{}),
		build:   localjoin.NewBuild(),
		digests: make([][]localjoin.ChunkDigest, mappers),
	}
	go f.run()
	return f
}

// feedChunk hands the feeder one decoded chunk, transferring buffer
// ownership. Read-loop side only; never called after stop or markEOS.
func (f *buildFeeder) feedChunk(rel, mapper int, keys []join.Key) {
	f.ch <- feedEvent{rel: rel, mapper: mapper, keys: keys}
}

// feedTail marks relation rel's stream complete (its CHUNK tail decoded).
func (f *buildFeeder) feedTail(rel int) {
	f.ch <- feedEvent{rel: rel}
}

// markEOS records that the job's EOS frame was decoded: chunks processed
// from here on no longer count as overlapped.
func (f *buildFeeder) markEOS() { f.eosSeen.Store(true) }

// run is the feeder goroutine: drain events until the channel closes.
func (f *buildFeeder) run() {
	defer close(f.done)
	for ev := range f.ch {
		switch {
		case ev.keys != nil && ev.rel == 1:
			if !f.eosSeen.Load() {
				f.overlapped++
			}
			f.digests[ev.mapper] = append(f.digests[ev.mapper], localjoin.DigestKeys(ev.keys))
			f.build.Insert(ev.keys)
			exec.PutKeyBuffer(ev.keys)
		case ev.keys != nil: // rel 2 probe chunk
			if !f.sealed {
				// Defensive: the coordinator streams relation 1 fully before
				// relation 2, but the protocol does not forbid interleaving —
				// park the chunk and probe it at seal time.
				f.pending = append(f.pending, ev.keys)
				continue
			}
			if !f.eosSeen.Load() {
				f.overlapped++
			}
			f.count += f.build.ProbeCount(ev.keys)
			exec.PutKeyBuffer(ev.keys)
		case ev.rel == 1:
			f.seal()
		default: // rel 2 tail: nothing to do, totals validated by the read loop
		}
	}
}

// seal finishes the build side: combine the per-chunk digests in canonical
// mapper-major order into the relation's content key, consult the cache —
// a hit swaps in the shared sealed build of identical content, a miss
// publishes this one — and flush any parked probe chunks.
func (f *buildFeeder) seal() {
	if f.sealed {
		return
	}
	var flat []localjoin.ChunkDigest
	for _, ds := range f.digests {
		flat = append(flat, ds...)
	}
	key := localjoin.CombineDigests(flat)
	if cached := f.cache.Get(key); cached != nil {
		// Identical content already indexed by an earlier job: probe the
		// shared immutable build and drop this one. The wasted inserts were
		// overlapped with the wire anyway.
		f.build = cached
		f.cacheHit = true
	} else {
		f.build.Seal()
		f.build = f.cache.Add(key, f.build)
	}
	f.sealed = true
	for _, keys := range f.pending {
		f.count += f.build.ProbeCount(keys)
		exec.PutKeyBuffer(keys)
	}
	f.pending = nil
}

// stop terminates the feeder — close the event channel (no feed calls may
// follow: callers stop feeding on the same code paths that call this), wait
// for the goroutine — and recycles the probe chunks it still had parked.
// Every job exit path lands here (via sessJob.release). Idempotent; safe
// after finish.
func (f *buildFeeder) stop() {
	f.stopO.Do(func() { close(f.ch) })
	<-f.done
	for _, keys := range f.pending {
		exec.PutKeyBuffer(keys)
	}
	f.pending = nil
}

// finish stops the feeder and returns its results. The build is sealed even
// if relation 1's tail never arrived (callers only read results after
// validateComplete passed, but a sealed build keeps the error paths safe).
func (f *buildFeeder) finish() (build *localjoin.Build, count, overlapped int64, cacheHit bool) {
	f.stop()
	if !f.sealed {
		f.build.Seal()
		f.sealed = true
	}
	return f.build, f.count, f.overlapped, f.cacheHit
}
