package exec

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

	"ewh/internal/bufpool"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/stage"
)

// This file is the transport-agnostic runtime layer: the in-process engine
// and the networked engine are two transports behind one execution API. A
// driver (RunOver, RunPairsOver) plans and shuffles exactly once, wraps the
// shuffled relations in a Job and hands it to a Runtime; the Runtime only
// decides WHERE each worker's join happens — goroutines in this process
// (Local) or remote worker processes behind persistent connections
// (netexec.Session). Because every transport consumes the same shuffled
// blocks and runs the same pair join, results are bit-identical across
// transports for a fixed Config.

// Runtime executes planned join jobs over some transport.
type Runtime interface {
	// Label is appended to the scheme name in Results ("" for in-process,
	// "@sess" for the persistent-session network transport).
	Label() string
	// RunJob dispatches one job and fills wm[w].InputR1/InputR2/Output for
	// each of the job's workers (wm has length job.Workers). The driver
	// derives the modeled Work afterwards, so transports never see the cost
	// model. RunJob must call job.Pairs — when set — sequentially per
	// worker, though different workers may proceed concurrently.
	RunJob(job *Job, wm []WorkerMetrics) error
}

// PairIdx is one matched pair of a join, as indices into the worker's
// arrival-order R1 and R2 blocks. Indices (not payloads) cross transport
// boundaries: with a deterministic shuffle both sides of the wire hold
// identical blocks, so an index pair reconstructs the exact tuple pair.
type PairIdx struct{ I1, I2 uint32 }

// RelData is one shuffled relation as a Runtime consumes it.
type RelData struct {
	// Keys holds the per-worker contiguous key blocks. Nil when the relation
	// streams as chunks instead (Chunks non-nil).
	Keys *KeyShuffle
	// Rekey, non-nil only on relation 2 of a stage pipeline's first job, is the
	// re-key column: Rekey.Worker(w)[i] is the next stage's join key of tuple
	// Keys.Worker(w)[i]. A stage-1 match materializes as that key (§IV-B).
	Rekey *KeyShuffle
	// Chunks, when non-nil (and Keys nil), streams the relation's routed
	// sub-blocks as mappers finish, so a transport frames bytes onto sockets
	// before the whole relation has scattered. A job's relations stream only
	// to runtimes that declare chunk support (ChunkStreamer); a stage
	// pipeline's right relation always does. A chunked relation has no Rekey.
	Chunks *ChunkStream
}

// RelFuture hands a Runtime one relation as soon as its shuffle completes.
// Wait blocks until the relation's scatter has finished; a wire transport
// that starts streaming R1 the moment it resolves overlaps its socket
// writes with R2's still-running shuffle.
type RelFuture struct {
	done chan struct{}
	data RelData
}

func newRelFuture() *RelFuture { return &RelFuture{done: make(chan struct{})} }

func (f *RelFuture) resolve(d RelData) {
	f.data = d
	close(f.done)
}

// Wait blocks until the relation's shuffle completed and returns it. Safe
// for concurrent callers.
func (f *RelFuture) Wait() RelData {
	<-f.done
	return f.data
}

// ResolvedRelFuture wraps an already-materialized relation for direct Job
// construction — custom transports and protocol tests that bypass the
// drivers' shuffle.
func ResolvedRelFuture(d RelData) *RelFuture {
	f := newRelFuture()
	f.resolve(d)
	return f
}

// ChunkStreamer is an optional Runtime extension: a transport that returns
// true consumes RelData.Chunks relations (framing each routed sub-block the
// moment it arrives) and the drivers hand it chunk streams for bare-key
// relations instead of waiting out the flat scatter. The in-process runtime
// does not implement it: a resident side is built once, at its seal, so a
// local join has nothing to overlap with the scatter, and the flat buffer
// feeds it directly.
type ChunkStreamer interface {
	StreamsChunks() bool
}

// JobChunkStreamer was a job-aware refinement of ChunkStreamer. Nothing in
// this module implements or reads it: it is kept only because the benchmark
// module compiles against it.
type JobChunkStreamer interface {
	StreamsChunksFor(job *Job) bool
}

// streamsChunksFor reports whether rt wants a job's relations chunked.
func streamsChunksFor(rt Runtime) bool {
	cs, ok := rt.(ChunkStreamer)
	return ok && cs.StreamsChunks()
}

// Job is one planned join handed to a Runtime: the predicate, the (still
// shuffling) relations, and an optional pair sink.
type Job struct {
	// Cond is the join predicate. Wire transports re-encode it with
	// join.SpecOf and fail for condition types without a wire spec;
	// in-process transports evaluate it directly, so exec.Run keeps working
	// for user-defined conditions.
	Cond join.Condition
	// Workers is the number of reducer workers (scheme.Workers()).
	Workers int
	// R1, R2 resolve to the shuffled relations.
	R1, R2 *RelFuture
	// Pairs, when non-nil, receives worker w's matched pairs in chunks, in
	// deterministic order (R1 arrival order, ties in R2 by key then arrival
	// index). Calls for the same worker are sequential; the chunk is only
	// valid for the duration of the call. When nil the job is count-only
	// and workers may sort their blocks in place.
	Pairs func(worker int, chunk []PairIdx)
	// Stages, when non-nil (length Workers), receives each worker's stage
	// record.
	Stages []stage.Record
}

// pairChunk is the flush granularity of JoinPairs: bounded buffering on
// every transport (32k pairs, 256 KiB) instead of materializing a
// potentially output-skewed worker's whole pair set.
const pairChunk = 1 << 15

// PairBufs recycles pair chunks: JoinPairs' flush buffers and the chunks a
// wire transport decodes a worker's pair frames into.
var PairBufs bufpool.Pool[PairIdx]

// JoinPairs streams the matched index pairs of a monotonic join with both
// relations in arrival order, calling flush with successive chunks (each at
// most pairChunk long, reused between calls). Pairs come in R1 arrival
// order; a tuple's R2 partners ascend by key with ties broken by arrival
// index, so every transport — the in-process Local runtime and a remote
// netexec worker joining the identical shuffled blocks — produces the
// byte-identical pair stream. Neither input slice is mutated. Returns the
// total match count.
func JoinPairs(r1, r2 []join.Key, cond join.Condition, flush func([]PairIdx)) int64 {
	return joinPairs(r1, r2, cond, pairRanked, flush)
}

// pairForm is the form a pair join orders relation 2 in. Both give the same
// pair stream.
type pairForm int

const (
	pairRanked  pairForm = iota // rank table within localjoin.FormOf's table budget, else pairArgsort
	pairTable                   // rank table whatever the span (tests only)
	pairArgsort                 // (key, index) argsort, one binary search per R1 key
)

// joinPairs is JoinPairs with relation 2's form chosen. Either form orders
// R2's arrival indices by (key, index), so an R1 key's partners are one run
// of them, which one loop emits: the table form counts R2 into a rank table
// and scatters its indices, finding a run in O(1); the argsort form sorts
// (key, index) entries, finding a run's start by binary search. A block the
// table refuses takes the argsort form.
func joinPairs(r1, r2 []join.Key, cond join.Condition, form pairForm, flush func([]PairIdx)) int64 {
	if len(r1) == 0 || len(r2) == 0 {
		return 0
	}
	var ro *localjoin.RankOrder
	if form != pairArgsort {
		ro = localjoin.NewRankOrder(r2, form == pairTable)
	}
	var ord []keyIdx // the argsort form: R2 by (key, index)
	var order []uint32
	if ro == nil {
		ord, order = argsort(r2)
	}
	buf := PairBufs.Get(pairChunk)[:0]
	var out int64
	for i1, k := range r1 {
		lo, hi := cond.JoinableRange(k)
		var partners []uint32
		if ro != nil {
			partners = ro.Partners(lo, hi)
		} else {
			from, _ := slices.BinarySearchFunc(ord, lo,
				func(e keyIdx, k join.Key) int { return cmp.Compare(e.key, k) })
			to := from
			for to < len(ord) && ord[to].key <= hi {
				to++
			}
			partners = order[from:to]
		}
		for _, i2 := range partners {
			buf = append(buf, PairIdx{I1: uint32(i1), I2: i2})
			if len(buf) == pairChunk {
				out += pairChunk
				flush(buf)
				buf = buf[:0]
			}
		}
	}
	if ro != nil {
		ro.Release()
	} else {
		ordBufs.Put(ord)
		orderBufs.Put(order)
	}
	if len(buf) > 0 {
		out += int64(len(buf))
		flush(buf)
	}
	PairBufs.Put(buf)
	return out
}

// argsort orders R2 by (key, arrival index) instead of sorting it in place:
// the blocks may be shared with the driver's emission path, and the stable
// order is what makes the pair stream deterministic (slices.SortFunc alone is
// unstable). It returns the sorted entries and their indices alone, each R1
// key's partners a run of them.
func argsort(r2 []join.Key) (ord []keyIdx, order []uint32) {
	ord, order = ordBufs.Get(len(r2)), orderBufs.Get(len(r2))
	for i, k := range r2 {
		ord[i] = keyIdx{key: k, idx: uint32(i)}
	}
	slices.SortFunc(ord, func(a, b keyIdx) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	for i, e := range ord {
		order[i] = e.idx
	}
	return ord, order
}

// keyIdx is one argsort entry of JoinPairs: an R2 key and its arrival index.
type keyIdx struct {
	key join.Key
	idx uint32
}

// ordBufs and orderBufs serve the argsort form only.
var (
	ordBufs   bufpool.Pool[keyIdx]
	orderBufs bufpool.Pool[uint32]
)

// Local is the in-process runtime: each worker is a goroutine joining its
// shuffled blocks, bounded by GOMAXPROCS. Every job takes the flat scatter.
type Local struct{}

// Label implements Runtime; in-process results carry the bare scheme name.
func (Local) Label() string { return "" }

// RunJob implements Runtime. Count-only jobs seal relation 1's (owned) key
// block into a resident side, in the form its condition and span take, and
// probe relation 2's (countOwned). Pair jobs run the deterministic index-pair
// join. Local never returns an error.
func (Local) RunJob(job *Job, wm []WorkerMetrics) error {
	r1 := job.R1.Wait()
	r2 := job.R2.Wait()
	forWorkers(job.Workers, job.Stages, func(w int, clk *stage.Clock) {
		m := &wm[w]
		in1, in2 := r1.Keys.Worker(w), r2.Keys.Worker(w)
		var out int64
		if job.Pairs == nil {
			out = countOwned(in1, in2, job.Cond, clk)
		} else {
			out = JoinPairs(in1, in2, job.Cond, func(chunk []PairIdx) {
				job.Pairs(w, chunk)
			})
			clk.Mark(stage.Probe)
		}
		m.InputR1 = int64(len(in1))
		m.InputR2 = int64(len(in2))
		m.Output = out
	})
	return nil
}

// forWorkers runs f once per worker, each on its own goroutine, at most
// GOMAXPROCS at a time, and returns when all have. A worker's wait for its
// turn is its Admit stage; recs, when non-nil, gains each worker's record.
func forWorkers(n int, recs []stage.Record, f func(w int, clk *stage.Clock)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clk := stage.Start()
			sem <- struct{}{}
			defer func() { <-sem }()
			clk.Mark(stage.Admit)
			f(w, &clk)
			if recs != nil {
				recs[w].Add(&clk.Record)
			}
		}(w)
	}
	wg.Wait()
}

// sealChunks hands one worker's chunk stream to the resident side as the
// mappers route it and seals the side once the stream ends; the side pools
// every sub-block. It returns the tuple count.
func sealChunks(res *localjoin.Resident, c <-chan KeyChunk, clk *stage.Clock) (n int64) {
	for ch := range c {
		clk.Mark(stage.FrameWait)
		n += int64(len(ch.Keys))
		res.Insert(ch.Keys)
	}
	clk.Mark(stage.FrameWait)
	res.Seal()
	return n
}
