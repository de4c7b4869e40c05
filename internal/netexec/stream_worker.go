package netexec

import (
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/keysort"
	"ewh/internal/localjoin"
	"ewh/internal/planio"
)

// This file is the worker-resident join feed: the one goroutine behind a
// bounded channel that builds a join structure from one relation's key
// frames, seals it at that relation's end frame, and joins the other
// relation's key frames against it. The read loop decodes frames into pooled
// buffers (session_worker.go's readKeyFrame) and hands them over the channel
// — a full channel is the backpressure onto TCP — and the goroutine is the
// job's only reply path, closing with the ordinary EOS / METRICS pair. Two
// job kinds run on it:
//
//   - A stream job (STREAMOPEN, frames 33-38): an unbounded sequence of
//     tuple windows (relation 1) against a static base (relation 2). Each
//     window counts when its end frame lands and replies a frameV3StreamRep
//     with the count and a summary of its keys; a new epoch's base frames
//     drop the old structure and build the next — mid-stream replanning
//     without restarting the job. It admits per seal and per window.
//   - A chunk-fed count job (see chunkHead): a one-epoch, one-window stream.
//     Relation 1's chunks are the base, its tail the seal; relation 2's
//     chunks are the window, probed as they decode and never materialized.
//     It adds a per-chunk base digest, so the seal can share the worker's
//     build cache, and the count of chunks consumed before EOS
//     (Metrics.BuildOverlapped); it keeps no window keys (nothing to
//     summarize), runs under the slot its OPENJOB took, and returns its
//     totals in the METRICS.

// streamOpen opens a stream job (rides frameV3StreamOpen as gob).
type streamOpen struct {
	WorkerID int
	Cond     join.Spec
	// Engine is the coordinator's exec.JoinEngine selection, same contract
	// as jobOpen.Engine.
	Engine int
	// StatsCap/StatsBuckets/StatsSeed/StatsAdaptive size the per-window
	// summaries, same vocabulary as planSpec's stats fields.
	StatsCap      int
	StatsBuckets  int
	StatsSeed     uint64
	StatsAdaptive bool
}

// streamWinReply answers one window's end frame (rides frameV3StreamRep as
// gob). Summary is a planio-encoded stats.Summary, nil for an empty shard.
// A failed stream replies its error on every subsequent window so the
// coordinator's lockstep collect never hangs.
type streamWinReply struct {
	Window  uint32
	Epoch   uint32
	Input   int64
	Count   int64
	Summary []byte
	Err     string
	Code    int
}

// Stream event kinds, read-loop → stream goroutine.
const (
	evStreamBase = iota
	evStreamBaseEnd
	evStreamWin
	evStreamWinEnd
	evStreamEOS
	evStreamFail
)

type streamEvent struct {
	kind   int
	win    uint32
	epoch  uint32
	mapper int        // fed job: orders the base's content digest
	keys   []join.Key // pooled; ownership transfers to the goroutine
	total  int
	err    error
}

// streamEventDepth bounds the event channel. Small on purpose: a full channel
// makes the read loop yield to the goroutine (backpressure onto TCP, exactly
// like admission), which both bounds buffering and guarantees the join
// interleaves with the frames still arriving instead of running after them.
const streamEventDepth = 8

// fedKinds maps a fed job's relation tag onto the stream vocabulary: relation
// 1 is the one epoch's base, relation 2 the one window. It returns the event
// kinds the relation's chunks and its tail become.
func fedKinds(tag byte) (keys, end int) {
	if tag == 1 {
		return evStreamBase, evStreamBaseEnd
	}
	return evStreamWin, evStreamWinEnd
}

// sessStream is one fed or stream job's join state. The read loop owns frame
// decode, running counts and tenant charging (sessJob.charge); the goroutine
// credits the reservation back as buffers leave worker memory.
type sessStream struct {
	ws *workerSession
	j  *sessJob

	// fed marks a chunk-fed count job (see the file comment).
	fed    bool
	cond   join.Condition
	engine exec.JoinEngine // resolved for cond: EngineHash or EngineMerge
	st     exec.StatsSpec

	ch    chan streamEvent
	done  chan struct{}
	stopO sync.Once

	// eosSeen is set by the read loop when it decodes the job's EOS: chunks a
	// fed job consumes before that count as overlapped work, and the
	// goroutine, not the read loop, retires the job.
	eosSeen atomic.Bool

	// Goroutine state.
	failed error
	epoch  uint32
	sealed bool
	baseN  int
	build  *localjoin.Build // hash engine
	base   []join.Key       // merge engine; sorted at seal
	// digests holds a fed job's per-chunk base digests by mapper, in arrival
	// order: combined mapper-major at the seal they are the base's content key.
	digests [][]localjoin.ChunkDigest

	winOpen bool
	win     uint32
	winKeys []join.Key // a stream's window, kept to summarize (and merge-join)
	winHash int64      // hash engine: matches counted chunk-by-chunk

	totIn, totOut int64
	overlapped    int64
	start         time.Time
}

// newSessStream starts the goroutine for a freshly opened stream job, or —
// mappers > 0 — for a count job whose relation 1 just declared that many
// chunk sub-streams. A stream job that failed at open (j.err set, possibly
// without a condition) starts poisoned.
func newSessStream(j *sessJob, st exec.StatsSpec, mappers int) *sessStream {
	cond := j.cond
	if cond == nil {
		cond = join.Equi{} // placeholder; the stream is poisoned
	}
	s := &sessStream{
		ws: j.ws, j: j,
		fed:    mappers > 0,
		cond:   cond,
		engine: j.engine.ForCond(cond),
		st:     st,
		ch:     make(chan streamEvent, streamEventDepth),
		done:   make(chan struct{}),
		failed: j.err,
		start:  time.Now(),
	}
	if s.fed {
		s.digests = make([][]localjoin.ChunkDigest, mappers)
	}
	go s.run()
	return s
}

// feed hands one event to the goroutine. Read-loop side only.
func (s *sessStream) feed(ev streamEvent) { s.ch <- ev }

// stop terminates the goroutine (connection teardown, abort): close the
// channel and wait. Idempotent, and a plain no-op once the goroutine has
// exited — which is how the EOS path's own retire passes through here.
func (s *sessStream) stop() {
	s.stopO.Do(func() { close(s.ch) })
	<-s.done
}

// admit takes the admission slot a seal or a window's join runs under. Only a
// stream job admits here: a fed job still holds the slot its OPENJOB took in
// the read loop, and queueing for a second would deadlock a one-slot worker
// against itself.
func (s *sessStream) admit() (release func(), err error) {
	if s.fed {
		return func() {}, nil
	}
	return s.ws.w.admitJob(s.ws.tenant, s.ws.w.kill, s.ws.done)
}

// consumed counts one chunk a fed job inserted or probed; before the read
// loop decoded EOS, that work overlapped the still-arriving frames.
func (s *sessStream) consumed() {
	if !s.eosSeen.Load() {
		s.overlapped++
	}
}

// fail poisons the stream with its first error (nil is none): subsequent
// events recycle their buffers and the replies carry the error.
func (s *sessStream) fail(err error) {
	if s.failed == nil {
		s.failed = err
	}
}

// run is the join goroutine. After an EOS the read loop has already taken
// the job out of its table, so the goroutine retires the job itself on the
// way out — once done is closed, so retire's stop does not wait on its own
// caller.
func (s *sessStream) run() {
	defer func() {
		close(s.done)
		if s.eosSeen.Load() {
			s.ws.retire(s.j)
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "netexec: worker: recovered in stream job %d from %s: %v\n%s",
				s.j.id, s.ws.conn.RemoteAddr(), r, debug.Stack())
		}
	}()
	for ev := range s.ch {
		switch ev.kind {
		case evStreamFail:
			s.fail(ev.err)
		case evStreamBase:
			s.onBase(ev)
		case evStreamBaseEnd:
			s.onBaseEnd(ev)
		case evStreamWin:
			s.onWin(ev)
		case evStreamWinEnd:
			s.onWinEnd(ev)
		case evStreamEOS:
			s.onEOS()
			return
		}
	}
}

// resetBase drops the previous epoch's structure and reservation.
func (s *sessStream) resetBase() {
	s.j.credit(8 * int64(s.baseN))
	s.build, s.base, s.baseN, s.sealed = nil, nil, 0, false
}

func (s *sessStream) onBase(ev streamEvent) {
	defer exec.PutKeyBuffer(ev.keys)
	if s.failed == nil && s.sealed && ev.epoch == s.epoch {
		s.fail(fmt.Errorf("stream base re-opened for sealed epoch %d", ev.epoch))
	}
	if s.failed != nil {
		s.j.credit(8 * int64(len(ev.keys)))
		return
	}
	if ev.epoch != s.epoch {
		// First frame of a new epoch: replanned base replaces the old one.
		s.resetBase()
		s.epoch = ev.epoch
	}
	switch s.engine {
	case exec.EngineHash:
		if s.build == nil {
			s.build = localjoin.NewBuild()
		}
		s.build.Insert(ev.keys)
	default:
		s.base = append(s.base, ev.keys...)
	}
	if s.fed {
		s.digests[ev.mapper] = append(s.digests[ev.mapper], localjoin.DigestKeys(ev.keys))
		s.consumed()
	}
	s.baseN += len(ev.keys)
	// The keys now live in the build (or the flat base): the reservation
	// stays until the epoch resets, covering that resident memory.
}

func (s *sessStream) onBaseEnd(ev streamEvent) {
	if s.failed != nil {
		return
	}
	if ev.epoch != s.epoch {
		if !s.sealed && s.baseN > 0 {
			s.fail(fmt.Errorf("stream base end for epoch %d amid epoch %d's chunks", ev.epoch, s.epoch))
			return
		}
		// A replanned base whose share for THIS worker is empty ships no
		// chunk frames, so the end frame alone opens (and seals) the epoch.
		s.resetBase()
		s.epoch = ev.epoch
	}
	if s.sealed {
		s.fail(fmt.Errorf("stream base end for already-sealed epoch %d", ev.epoch))
		return
	}
	release, err := s.admit()
	if err != nil {
		s.fail(err)
		return
	}
	if s.engine == exec.EngineHash {
		if s.build == nil {
			s.build = localjoin.NewBuild()
		}
		s.sealBuild()
	} else {
		keysort.Sort(s.base)
	}
	release()
	s.sealed = true
}

// sealBuild seals the hash build. A fed job first combines its per-chunk
// digests in canonical mapper-major order into the base's content key and
// consults the worker's build cache: a hit swaps in the shared sealed build
// of identical content (the wasted inserts overlapped the wire anyway), a
// miss publishes this one. A stream's base stays uncached — an epoch's share
// is job-unique, so caching it would only churn the LRU.
func (s *sessStream) sealBuild() {
	if !s.fed {
		s.build.Seal()
		return
	}
	var flat []localjoin.ChunkDigest
	for _, ds := range s.digests {
		flat = append(flat, ds...)
	}
	key := localjoin.CombineDigests(flat)
	cache := s.ws.w.buildCache
	if cached := cache.Get(key); cached != nil {
		s.build = cached
		return
	}
	s.build.Seal()
	s.build = cache.Add(key, s.build)
}

// enterWin admits keys or an end frame for window win, routed under epoch,
// opening the window if it is not yet — or says why they cannot be taken. A
// fed job's relation 2 ahead of relation 1's tail lands on the first case: no
// sender produces it (sendJob writes relation 1 through its tail first).
func (s *sessStream) enterWin(win, epoch uint32) error {
	switch {
	case !s.sealed:
		return fmt.Errorf("window %d ahead of any sealed base", win)
	case epoch != s.epoch:
		return fmt.Errorf("stream window %d routed for epoch %d, base is at %d", win, epoch, s.epoch)
	case s.winOpen && win != s.win:
		return fmt.Errorf("stream window %d interleaves with open window %d", win, s.win)
	case !s.winOpen:
		s.winOpen, s.win, s.winHash = true, win, 0
	}
	return nil
}

func (s *sessStream) onWin(ev streamEvent) {
	defer exec.PutKeyBuffer(ev.keys)
	if s.failed == nil {
		s.fail(s.enterWin(ev.win, ev.epoch))
	}
	if s.failed != nil {
		s.j.credit(8 * int64(len(ev.keys)))
		return
	}
	if s.engine == exec.EngineHash {
		// Probe each chunk as it lands: the count overlaps the window's
		// remaining frames still on the wire.
		s.winHash += s.build.ProbeCount(ev.keys)
	}
	if s.fed {
		// Nothing to summarize: the chunk leaves worker memory here.
		s.consumed()
		s.j.credit(8 * int64(len(ev.keys)))
		return
	}
	s.winKeys = append(s.winKeys, ev.keys...)
}

// onWinEnd joins and retires the window (the read loop checked its total). A
// stream replies per window — the error, once failed, so the coordinator's
// lockstep collect never hangs; a fed job's totals ride the METRICS at EOS.
func (s *sessStream) onWinEnd(ev streamEvent) {
	r := streamWinReply{Window: ev.win, Epoch: ev.epoch, Input: int64(ev.total)}
	if s.failed == nil {
		// An empty window ships no key frames; its end frame both opens and
		// closes it.
		s.fail(s.enterWin(ev.win, ev.epoch))
	}
	if s.failed == nil {
		s.fail(s.joinWindow(&r))
	}
	// The shard's receive bytes leave worker memory here.
	s.j.credit(8 * int64(len(s.winKeys)))
	s.winKeys = s.winKeys[:0]
	s.winOpen = false
	if s.fed {
		return
	}
	if s.failed != nil {
		r.Err = s.failed.Error()
		r.Code = rejectCode(s.failed)
	}
	// A failed write poisons the stream; the read loop will observe the dead
	// connection on its own.
	s.fail(s.ws.reply(frameV3StreamRep, s.j.id, r))
}

// joinWindow fills r with the open window's match count and, for a stream
// (a fed job kept no window keys), the summary of its keys.
func (s *sessStream) joinWindow(r *streamWinReply) error {
	release, err := s.admit()
	if err != nil {
		return err
	}
	defer release()
	if sum := exec.SummarizeWindow(s.winKeys, s.st, s.j.workerID, r.Window); sum != nil {
		enc, err := planio.EncodeSummary(sum)
		if err != nil {
			return fmt.Errorf("window summary: %w", err)
		}
		r.Summary = enc
	}
	if s.engine == exec.EngineHash {
		r.Count = s.winHash
	} else {
		keysort.Sort(s.winKeys)
		r.Count = localjoin.CountSorted(s.winKeys, s.base, s.cond)
	}
	s.totIn += r.Input
	s.totOut += r.Count
	return nil
}

// onEOS replies the job's aggregate metrics; run retires the job next. The
// read loop is done with a job it saw the EOS of, so a fed job's relation
// declarations validate here, as finishJob validates an assembled job's.
func (s *sessStream) onEOS() {
	if s.fed && s.failed == nil {
		s.failed = s.j.validateComplete()
	}
	m := metrics{
		InputR1:         s.totIn,
		InputR2:         int64(s.baseN),
		Output:          s.totOut,
		Nanos:           time.Since(s.start).Nanoseconds(),
		Engine:          int(s.engine),
		BuildOverlapped: s.overlapped,
	}
	if s.fed {
		m.InputR1, m.InputR2 = m.InputR2, m.InputR1
	}
	if s.failed != nil {
		m = metrics{Err: s.failed.Error(), Code: rejectCode(s.failed)}
	}
	_ = s.ws.reply(frameV3Metrics, s.j.id, m) // nothing left to tell a dead connection
}
