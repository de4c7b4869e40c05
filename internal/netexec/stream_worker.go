package netexec

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ewh/internal/bufpool"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/planio"
	"ewh/internal/stage"
)

// This file is the worker's join goroutine, one per job from its open: the
// read loop decodes each key frame into its own pooled chunk
// (session_worker.go's readKeyFrame) and hands it over a bounded channel — a
// full channel is the backpressure onto TCP — and the goroutine is the job's
// only reply path, ending with the final REPLY after EOS. A pairs or stage-1
// plan job keeps each run's chunks in arrival order (its pair indices) and
// joins them at EOS (joinInOrder) under the slot its open took; a
// contribution keeps its one run's and commits them to its transfer at EOS
// (commit). Every other job counts: it holds one relation as the join's
// resident side (localjoin.Resident — hash, table or merge, the goroutine
// never asks which), seals it at that relation's end frame, and probes the
// other relation against it, each kind taking its relations as base and
// window frames:
//
//   - A stream job: an unbounded sequence of tuple windows (relation 1)
//     against a static base (relation 2). Each window counts at its end
//     frame and replies an interim REPLY with the count and a summary of its
//     keys (a failed stream replies its error on every later window, so the
//     coordinator's lockstep collect never hangs); a new epoch's base frames
//     replace the side — mid-stream replanning without restarting the job.
//     It admits per seal and per window.
//   - A count job: a one-epoch, one-window stream at epoch 0, window 0.
//     Relation 1 is the base, the resident side, sealed at its end frame
//     while relation 2, the window, is still on the wire; the window's frames
//     probe as they decode (a merge side keeps them for one sweep at the
//     window's end). It shares the worker's build cache, counts the frames
//     consumed before EOS (reply.BuildOverlapped) and runs under the slot its
//     open took.
//   - A peer job, stage 2: relation 2, the coordinator's base frames, arrives
//     while stage 1 still runs and is the resident side; the probe is the
//     transfer its senders contribute to, taken at EOS. It parks on the
//     transfer holding no slot and admits per seal and per probe, like a
//     stream.

// Stream event kinds, read-loop → stream goroutine; each run's end follows
// its key event (runEvent relies on the order).
const (
	evStreamBase = iota
	evStreamBaseEnd
	evStreamWin
	evStreamWinEnd
	evStreamEOS
	evStreamFail
)

type streamEvent struct {
	kind  int
	win   uint32
	epoch uint32
	keys  []join.Key // pooled; ownership transfers to the goroutine
	total int
	err   error
}

// streamEventDepth bounds the event channel. Small on purpose: a full channel
// makes the read loop yield to the goroutine (backpressure onto TCP, exactly
// like admission), which both bounds buffering and guarantees the join
// interleaves with the frames still arriving instead of running after them.
const streamEventDepth = 8

// sessStream is one job's join state. The read loop owns frame decode,
// running counts and tenant charging (sessJob.charge); the goroutine credits
// the reservation back as buffers leave worker memory.
type sessStream struct {
	ws *workerSession
	j  *sessJob

	// resTag is the relation whose base frames are a fed job's resident side
	// (resTags); st sizes a stream's window summaries and a plan job's
	// summary of its matches.
	resTag byte
	st     exec.StatsSpec

	ch    chan streamEvent
	done  chan struct{}
	stopO sync.Once

	// eosSeen is set by the read loop when it decodes the job's EOS: chunks a
	// fed job consumes before that count as overlapped work, and the
	// goroutine, not the read loop, retires the job.
	eosSeen atomic.Bool

	// Goroutine state. runs holds a pairs or plan job's chunks per relation
	// (relation 1, 2, the re-key column) in arrival order.
	runs   [3][][]join.Key
	failed error
	epoch  uint32
	sealed bool
	baseN  int
	res    *localjoin.Resident
	held   [][]join.Key // pooled chunks res keeps: until its seal, then until the window's end
	// digests, on a count job's side (resTag 1: the ordered kinds that share
	// it never reach onBase), holds the digests of every chunk res was given,
	// kept or copied out: folded at the seal, in any order, they are the
	// side's content key in the worker's build cache, whatever form it seals
	// into.
	digests []localjoin.ChunkDigest

	winOpen  bool
	win      uint32
	winKeys  []join.Key // a stream's window, sorted, summarized and probed at its end
	winCount int64      // a fed job's matches, counted chunk by chunk

	totIn, totOut int64
	overlapped    int64
	// clk is the goroutine's stage record: each receive ends a FrameWait,
	// each handler stamps its own steps, and a window reply takes the record.
	clk stage.Clock
	// admitted is the nanoseconds the read loop waited at the job's open for
	// the slot it took, set before it feeds any event. The clock ran through
	// that wait, so the first receive moves it from FrameWait to Admit.
	admitted int64
}

// resTags is each job kind's resident relation: 1 for a count, pairs or plan
// job (and a contribution, whose one run is relation 1), 2 for a peer job,
// whose relation 1 is the transfer, and 0 for a stream.
var resTags = [numKinds]byte{kindCount: 1, kindPairs: 1, kindPlan: 1, kindPeer: 2, kindContrib: 1}

// fed reports any job but a stream: one resident relation, one probe
// relation, no window replies or summaries.
func (s *sessStream) fed() bool { return s.resTag != 0 }

// ordered reports a pairs, plan or contribution job: one that keeps its runs
// in arrival order to EOS.
func (s *sessStream) ordered() bool {
	return s.j.kind == kindPairs || s.j.kind == kindPlan || s.j.kind == kindContrib
}

// newSessStream starts the goroutine for a freshly opened job. A job that
// failed at open starts poisoned.
func newSessStream(j *sessJob, st exec.StatsSpec) *sessStream {
	s := &sessStream{
		ws: j.ws, j: j,
		resTag: resTags[j.kind],
		st:     st,
		ch:     make(chan streamEvent, streamEventDepth),
		done:   make(chan struct{}),
		failed: j.err,
		clk:    stage.Start(),
	}
	s.resetBase()
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

// admit takes the admission slot a seal or a probe runs under. A count job
// still holds the one the read loop took at its open — queueing for a second
// would deadlock a one-slot worker against itself.
func (s *sessStream) admit() (release func(), err error) {
	if s.j.releaseSlot != nil {
		return func() {}, nil
	}
	defer s.clk.Mark(stage.Admit)
	return s.ws.w.admitJob(s.j.ctx, s.ws.tenant)
}

// consumed counts one chunk a fed job inserted or probed; before the read
// loop decoded EOS, that work overlapped the still-arriving frames.
func (s *sessStream) consumed() {
	if s.fed() && !s.eosSeen.Load() {
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

// run is the join goroutine. After an EOS the read loop no longer retires
// the job, so the goroutine retires it itself on the way out — once done is
// closed, so retire's stop does not wait on its own caller.
func (s *sessStream) run() {
	defer func() {
		s.recycleHeld() // release sweeps the reservation
		for _, run := range s.runs {
			for _, keys := range run {
				bufpool.Keys.Put(keys)
			}
		}
		close(s.done)
		if s.eosSeen.Load() {
			s.ws.retire(s.j)
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "netexec: worker: recovered in job %d from %s: %v\n%s",
				s.j.id, s.ws.conn.RemoteAddr(), r, debug.Stack())
		}
	}()
	for ev := range s.ch {
		s.clk.Mark(stage.FrameWait)
		if s.admitted != 0 {
			s.clk.Record[stage.FrameWait] -= s.admitted
			s.clk.Record[stage.Admit] += s.admitted
			s.admitted = 0
		}
		if ev.kind < evStreamEOS && s.ordered() {
			s.keep(ev)
			continue
		}
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

// keep holds an ordered job's key chunk at the end of its run: the base,
// window 0 or window 1. An end frame carries nothing the read loop has
// not checked.
func (s *sessStream) keep(ev streamEvent) {
	i := 0
	if ev.kind == evStreamWin {
		i = 1 + int(ev.win)
	}
	if ev.keys != nil {
		s.runs[i] = append(s.runs[i], ev.keys)
	}
}

// flat returns run i as one slice: its only chunk as it arrived, or its
// chunks copied into one buffer, charged before it is taken — while both
// copies exist — and the chunks credited once copied.
func (s *sessStream) flat(i int) ([]join.Key, error) {
	run := s.runs[i]
	switch len(run) {
	case 0:
		return nil, nil
	case 1:
		return run[0], nil
	}
	n := 0
	for _, keys := range run {
		n += len(keys)
	}
	if err := s.j.charge(8 * int64(n)); err != nil {
		return nil, err
	}
	buf := bufpool.Keys.Get(n)[:0]
	for _, keys := range run {
		buf = append(buf, keys...)
		bufpool.Keys.Put(keys)
	}
	s.j.credit(8 * int64(n))
	s.runs[i] = [][]join.Key{buf}
	return buf, nil
}

// joinInOrder joins a pairs or plan job's runs as they arrived: a pairs job's
// matches stream back as index pairs, a plan job's re-shuffle to its peers
// (runPlanJob).
func (s *sessStream) joinInOrder() (reply, error) {
	var rels [3][]join.Key
	for i := range rels {
		var err error
		if rels[i], err = s.flat(i); err != nil {
			return reply{}, err
		}
	}
	s.clk.Mark(stage.Build)
	j, ws := s.j, s.ws
	m := reply{InputR1: int64(len(rels[0])), InputR2: int64(len(rels[1]))}
	if j.kind == kindPlan {
		out, counts, err := ws.runPlanJob(j, rels[0], rels[1], rels[2])
		m.Output, m.PeerCounts = out, counts
		return m, err
	}
	// The pair join must not sort the runs in place: indices refer to arrival
	// order on both sides of the wire. Chunks stream back as they fill,
	// interleaving with other jobs' replies at frame granularity.
	m.Output = exec.JoinPairs(rels[0], rels[1], j.cond, func(chunk []exec.PairIdx) {
		ws.wmu.Lock()
		_ = writePairsFrame(ws.bw, j.id, chunk)
		ws.wmu.Unlock()
	})
	s.clk.Mark(stage.Probe)
	return m, nil
}

// recycleHeld pools the n keys of the chunks the side kept and is done with.
func (s *sessStream) recycleHeld() (n int) {
	for _, keys := range s.held {
		n += len(keys)
		bufpool.Keys.Put(keys)
	}
	s.held = nil
	return n
}

// resetBase replaces the side with an empty one, crediting the old one's
// reservation.
func (s *sessStream) resetBase() {
	s.recycleHeld()
	s.j.credit(8 * int64(s.baseN))
	s.res, s.baseN, s.sealed = localjoin.NewResident(s.j.cond, s.resTag == 1), 0, false
}

func (s *sessStream) onBase(ev streamEvent) {
	if s.failed == nil && s.sealed && ev.epoch == s.epoch {
		s.fail(fmt.Errorf("stream base re-opened for sealed epoch %d", ev.epoch))
	}
	if s.failed != nil {
		bufpool.Keys.Put(ev.keys)
		s.j.credit(8 * int64(len(ev.keys)))
		return
	}
	if ev.epoch != s.epoch {
		// First frame of a new epoch: replanned base replaces the old one.
		s.resetBase()
		s.epoch = ev.epoch
	}
	// Kept or copied out, the keys now live in the side: the reservation
	// stays until the epoch resets, covering that resident memory.
	if s.resTag == 1 {
		s.digests = append(s.digests, localjoin.DigestKeys(ev.keys))
	}
	if s.res.Insert(ev.keys) {
		s.held = append(s.held, ev.keys)
	} else {
		bufpool.Keys.Put(ev.keys)
	}
	s.consumed()
	s.baseN += len(ev.keys)
	s.clk.Mark(stage.Build)
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
	if s.resTag == 1 {
		// A count job's side, hash or table, is shared through the build
		// cache; a failed job returned above, so it publishes nothing. A
		// stream's or peer-fed job's side stays uncached: job-unique, it
		// would only churn the LRU.
		s.res.SealShared(s.ws.w.buildCache, localjoin.CombineDigests(s.digests))
	} else {
		s.res.Seal()
	}
	s.recycleHeld()
	release()
	s.sealed = true
	s.clk.Mark(stage.Build)
}

// enterWin admits keys or an end frame for window win, routed under epoch,
// opening the window if it is not yet — or says why they cannot be taken. A
// count job's relation 2 ahead of relation 1's end frame lands on the first
// case: no sender produces it (sendJob writes relation 1 through its end
// first).
func (s *sessStream) enterWin(win, epoch uint32) error {
	switch {
	case !s.sealed:
		return fmt.Errorf("window %d ahead of any sealed base", win)
	case epoch != s.epoch:
		return fmt.Errorf("stream window %d routed for epoch %d, base is at %d", win, epoch, s.epoch)
	case s.winOpen && win != s.win:
		return fmt.Errorf("stream window %d interleaves with open window %d", win, s.win)
	case !s.winOpen:
		s.winOpen, s.win, s.winCount = true, win, 0
	}
	return nil
}

func (s *sessStream) onWin(ev streamEvent) {
	if s.failed == nil {
		s.fail(s.enterWin(ev.win, ev.epoch))
	}
	switch {
	case s.failed != nil:
	case !s.fed():
		// Kept to sort, summarize and probe under the window's slot.
		s.winKeys = append(s.winKeys, ev.keys...)
		bufpool.Keys.Put(ev.keys)
		return
	default:
		// A fed job's probe chunk counts as it lands, overlapping the frames
		// still on the wire; one the side keeps stays reserved to the tail.
		s.consumed()
		n, kept := s.res.ProbeCount(ev.keys, true)
		s.winCount += n
		s.clk.Mark(stage.Probe)
		if kept {
			s.held = append(s.held, ev.keys)
			return
		}
	}
	bufpool.Keys.Put(ev.keys)
	s.j.credit(8 * int64(len(ev.keys)))
}

// onWinEnd closes the window (the read loop checked its total). A stream
// replies per window — the error, once failed, so the coordinator's lockstep
// collect never hangs; a fed job's totals ride its final reply at EOS.
func (s *sessStream) onWinEnd(ev streamEvent) {
	r := reply{Window: ev.win, Epoch: ev.epoch, InputR1: int64(ev.total)}
	if s.failed == nil {
		s.fail(s.enterWin(ev.win, ev.epoch)) // an empty window's end frame both opens and closes it
	}
	if s.failed == nil {
		s.fail(s.closeWindow(&r))
	}
	// The shard's receive bytes leave worker memory here.
	s.j.credit(8 * int64(len(s.winKeys)+s.recycleHeld()))
	s.winKeys = s.winKeys[:0]
	s.winOpen = false
	if s.fed() {
		return
	}
	if s.failed != nil {
		r.Err = s.failed.Error()
		r.Code = rejectCode(s.failed)
	}
	// A failed write poisons the stream; the read loop sees the dead
	// connection. The write itself is the next window's first stage.
	r.Stages, s.clk.Record = s.clk.Record, stage.Record{}
	s.ws.w.tallyReply(kindStream, &r)
	s.fail(s.ws.reply(s.j.id, &r))
	s.clk.Mark(stage.Reply)
}

// closeWindow fills r with the open window's match count and, for a stream
// (a fed job kept no window keys), the summary of its keys, which it sorts in
// place and probes in key order.
func (s *sessStream) closeWindow(r *reply) error {
	release, err := s.admit()
	if err != nil {
		return err
	}
	defer release()
	n, sum := exec.CloseWindow(s.res, s.winKeys, s.st, s.j.workerID, r.Window, &s.clk)
	if sum != nil {
		enc, err := planio.EncodeSummary(sum)
		if err != nil {
			return fmt.Errorf("window summary: %w", err)
		}
		r.Summary = enc
		s.clk.Mark(stage.Summarize)
	}
	r.Output = s.winCount + n
	s.totIn += r.InputR1
	s.totOut += r.Output
	return nil
}

// commit hands a contribution's run to its transfer whole, chunks and charge
// alike, and answers with its count; a refusal leaves both to the job.
func (s *sessStream) commit() (reply, error) {
	j := s.j
	c := &peerContrib{tenant: s.ws.tenant, chunks: s.runs[0], n: j.rels[0].pos}
	if err := s.ws.w.commit(j.token, j.workerID, c); err != nil {
		return reply{}, err
	}
	s.runs[0] = nil
	j.charged.Add(-8 * int64(c.n))
	return reply{InputR1: int64(c.n)}, nil
}

// probeTransfer is a peer-fed job's probe: the stage-1 senders' contributions,
// taken out of the transfer and probed where they landed, then recycled, each
// credited to the tenant it was charged to. The wait ends when the transfer
// completes or fails, or the job's context ends; the job's retire removes the
// transfer.
func (s *sessStream) probeTransfer() error {
	w, j, st := s.ws.w, s.j, s.j.peerSt
	select {
	case <-st.ready:
	case <-j.ctx.Done():
		return errAbandoned
	}
	s.clk.Mark(stage.FrameWait)
	// Admission only once the transfer is complete: a slot holder must not
	// depend on stage-1 jobs that may be queued behind it on OTHER workers.
	release, err := s.admit()
	if err != nil {
		return err
	}
	defer release()
	st.mu.Lock()
	contrib, stErr := st.contrib, st.err
	st.contrib = nil // the job owns them now
	st.mu.Unlock()
	if stErr != nil {
		return fmt.Errorf("peer transfer %d: %w", j.token, stErr)
	}
	for _, c := range contrib {
		s.totIn += int64(c.n)
		for _, keys := range c.chunks {
			n, _ := s.res.ProbeCount(keys, true)
			s.totOut += n
		}
	}
	n, _ := s.res.ProbeCount(nil, false)
	s.totOut += n
	for _, c := range contrib {
		c.recycle(w.ledger)
	}
	s.clk.Mark(stage.Probe)
	return nil
}

// onEOS replies the job's final REPLY; run retires the job next. The read
// loop is done with a job it saw the EOS of, so any job's runs but a
// stream's validate here; a contribution then commits, a pairs or plan job
// joins, a peer job takes its probe from the transfer. The job then leaves
// the connection's table, so its id is free once it replied. An abandoned job
// (its ABORT, the hang-up or Close while it waited) exits silently: nobody
// awaits its reply.
func (s *sessStream) onEOS() {
	if s.fed() && s.failed == nil {
		s.failed = s.j.validateComplete()
	}
	var m reply
	switch {
	case s.failed != nil:
	case s.j.kind == kindContrib:
		m, s.failed = s.commit()
	case s.ordered():
		m, s.failed = s.joinInOrder()
	default:
		if s.j.kind == kindPeer {
			s.failed = s.probeTransfer()
		}
		m = reply{InputR1: s.totIn, InputR2: int64(s.baseN), Output: s.totOut, BuildOverlapped: s.overlapped}
		if s.resTag == 1 {
			m.InputR1, m.InputR2 = m.InputR2, m.InputR1
		}
	}
	s.ws.drop(s.j)
	if errors.Is(s.failed, errAbandoned) {
		return
	}
	if s.failed != nil {
		m = reply{Err: s.failed.Error(), Code: rejectCode(s.failed)}
		// A contribution that could not reach its peer indicts the PEER, not
		// this worker: lift the address out of the error so the coordinator
		// excludes the right machine.
		var pf *peerFaultError
		if errors.As(s.failed, &pf) {
			m.FaultAddr = pf.addr
		}
	}
	m.Stages, m.Final = s.clk.Record, true
	s.ws.w.tallyReply(s.j.kind, &m)
	_ = s.ws.reply(s.j.id, &m) // nothing left to tell a dead connection
}
