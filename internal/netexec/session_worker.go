package netexec

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"ewh/internal/bufpool"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/planio"
	"ewh/internal/stage"
	"ewh/internal/wire"
)

// This file is the worker side of the session protocol: one read loop per
// connection demultiplexes numbered jobs. Every job walks the same path —
// openJob registers it, settles its refusals and admission, then starts its
// join goroutine (stream_worker.go), endFrame/dataFrame decode its base and
// window runs, each key frame into its own pooled chunk handed to that
// goroutine, and retire is the single exit, shared with ABORT and connection
// teardown. The open's kind, one row of kinds, fixes the runs it takes and how
// the goroutine joins: a pairs or stage-1 plan job keeps its runs' chunks in
// arrival order and joins them at EOS; every other job joins while the frames
// arrive. Either way the read loop keeps draining the next job's frames. A job
// stays in the connection's table from its open until its retire (or its
// goroutine's final reply), so its ABORT reaches it at any point of its life:
// before its EOS the read loop retires it; after, the ABORT cancels the job's
// context, which every wait the job parks in takes, and the goroutine exits
// silently and retires it. Job-level protocol violations fail only that job
// (its remaining frames are read and discarded, then an error reply ends it);
// frame-level corruption is connection-fatal — framing is the only thing that
// lets the two sides stay in sync. A contribution sub-job, sent by a stage-1
// peer, walks the same path: its goroutine keeps its base run's chunks and
// commits them to the transfer at EOS.

// sessRel is one relation of an in-flight session job — or, in the job's
// third slot, a plan job's re-key column, its window 1. Every relation
// arrives as a run of base or window frames and knows its count only at the
// run's end frame: pos is the running count, and the end declares it final.
type sessRel struct {
	declared bool
	pos      int
}

// sessJob is one numbered job in flight on a session connection, its fields
// grouped by owner: the read loop decodes, checks and charges its frames; its
// join goroutine (stream_worker.go) takes each run's chunks over ch, joins
// them and is the job's only reply path.
type sessJob struct {
	// Set at the open, before the goroutine starts. st sizes a stream's
	// window summaries and a plan job's summary of its matches.
	id       uint32
	kind     byte // the open's job kind, its row of kinds
	workerID int
	cond     join.Condition
	st       exec.StatsSpec
	counted  bool // beginJob admitted it (draining workers refuse)

	// ctx is the job's one cancellation, derived from its connection's:
	// its ABORT, the hang-up and Close each end it, and every wait the job
	// parks in (admission, PLAN2, its transfer, its contributions) takes it.
	ctx    context.Context
	cancel context.CancelFunc

	// ws is the connection the job arrived on; its tenant keys the job's
	// account in the worker's ledger. charged is the job's reservation there:
	// the read loop charges each key frame before decoding it, a plan job its
	// matches; the goroutine credits buffers back as they leave worker
	// memory, a contribution hands its run's charge to the transfer it
	// commits, and release() sweeps the rest.
	ws      *workerSession
	charged atomic.Int64
	// releaseSlot returns the admission slot the job's open took
	// (idempotent); nil for a kind that takes none (a peer or stream job
	// admits per seal and per probe on the goroutine; a contribution joins
	// nothing) and for a job refused at its open.
	releaseSlot func()

	// token is a plan, peer or contribution job's transfer id. A plan job's
	// matches are materialized worker-side, summarized, re-shuffled by the
	// plan the coordinator builds from the summaries and contributed to peers
	// instead of returning as pairs; plan2 holds its PLAN2 from the frame's
	// arrival until the job takes it. A peer job's relation 1 is its
	// senders' contributions: peerSt is the transfer its open created, which
	// its retire removes.
	token  uint64
	plan2  chan *plan2
	peerSt *peerJobState

	// Read loop: the job's first error, after which its frames drain, and
	// each relation slot's run.
	err  error
	rels [3]sessRel

	// Shared. ch carries the read loop's events to the goroutine, done closes
	// as the goroutine exits. eosSeen is set by the read loop when it decodes
	// the job's EOS: chunks a fed job consumes before that count as
	// overlapped work, and the goroutine, not the read loop, retires the job.
	ch      chan streamEvent
	done    chan struct{}
	stopO   sync.Once
	eosSeen atomic.Bool

	// Goroutine: its first error (nil is none), an ordered job's chunks per
	// relation slot in arrival order, and a fed job's resident side.
	failed error
	runs   [3][][]join.Key
	epoch  uint32
	sealed bool
	baseN  int
	res    *localjoin.Resident

	winOpen  bool
	win      uint32
	winKeys  []join.Key // a stream's window, sorted, summarized and probed at its end
	winCount int64      // a fed job's matches, counted chunk by chunk
	winHeld  int        // keys of a fed job's probe chunks res keeps to the window's end

	totIn, totOut int64
	overlapped    int64
	// clk is the job's stage record, started at its open: an admission wait
	// there is its Admit, each receive ends a FrameWait, each handler stamps
	// its own steps, and a window reply takes the record.
	clk stage.Clock
}

// fail records the job's first error; subsequent data frames for the job
// are drained and discarded. The goroutine owns the job's reply path, so it
// is told too. Read-loop side only.
func (j *sessJob) fail(err error) {
	if j.err != nil {
		return
	}
	j.err = err
	j.feed(streamEvent{kind: evStreamFail, err: err})
}

func (j *sessJob) release() {
	// Every job exit path lands here, so the join goroutine never outlives
	// the job (a no-op wait when the goroutine itself retires the job after
	// its EOS). It must be gone before the sweep below.
	j.stop()
	j.ws.w.ledger.credit(j.ws.tenant, j.charged.Swap(0))
}

// charge reserves n bytes on the job's tenant account.
func (j *sessJob) charge(n int64) error {
	if err := j.ws.w.ledger.charge(j.ws.tenant, n); err != nil {
		return err
	}
	j.charged.Add(n)
	return nil
}

// credit releases n bytes of the reservation ahead of release: the buffers
// they covered left worker memory.
func (j *sessJob) credit(n int64) {
	if n > 0 {
		j.charged.Add(-n)
		j.ws.w.ledger.credit(j.ws.tenant, n)
	}
}

// runEvent decodes a frame of a base or window run (typ; h its sub-header or
// end payload) into the join goroutine's event, less its keys: a window run's
// frames lead with the window, then every one names the epoch, and the last
// four bytes are an end frame's exact total.
func runEvent(typ byte, h []byte) streamEvent {
	u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(h[i:]) }
	ev := streamEvent{kind: evStreamBase, epoch: u32(0), total: int(u32(len(h) - 4))}
	if typ == wire.StreamWin || typ == wire.StreamWinEnd {
		ev.kind, ev.win, ev.epoch = evStreamWin, u32(0), u32(4)
	}
	if typ == wire.StreamBaseEnd || typ == wire.StreamWinEnd {
		ev.kind++ // a run's end event follows its key event
	}
	return ev
}

// runRel admits a frame of a base or window run (ev, less its keys) and
// returns the relation slot it advances, as its kind's row of kinds states.
func (j *sessJob) runRel(ev streamEvent) (int, error) {
	k := &kinds[j.kind]
	base := ev.kind <= evStreamBaseEnd
	lastWin := uint32(max(k.wins-1, 0))
	i := k.base
	switch {
	case k.wins < 0 && !base: // a stream's windows are relation 1
		return 0, nil
	case k.wins < 0:
		return i, nil
	case j.kind == kindPeer && !base:
		return 0, fmt.Errorf("window frames on a peer-fed job, whose probe is the transfer")
	case j.kind == kindContrib && !base:
		return 0, fmt.Errorf("window frames on a contribution, whose share is its base")
	case ev.epoch != 0 || ev.win > lastWin:
		return 0, fmt.Errorf("a job's run at epoch %d, window %d, past epoch 0, window %d", ev.epoch, ev.win, lastWin)
	case !base:
		i = 1 + int(ev.win)
	}
	if j.rels[i].declared {
		return 0, fmt.Errorf("a job's frame after its run's end frame")
	}
	return i, nil
}

// workerSession is the worker side of one session connection: the state its
// read loop and the goroutines of its in-flight jobs share.
type workerSession struct {
	w    *Worker
	cs   *connState
	conn net.Conn

	wmu sync.Mutex // serializes reply frames across concurrent job goroutines
	bw  *bufio.Writer

	// ctx is every job's parent: cancelled when the dialer hangs up (or the
	// worker's is, at Close), it ends every wait a job of this connection is
	// parked in — their reply has nowhere to go anyway.
	ctx context.Context

	// tenant is the session's identity for admission and quota accounting,
	// named in its prelude ("" is anonymous) — a plan job's contributions
	// carry it to their receivers. jobs is the connection's one job table,
	// by id: a job enters at its open and leaves at its retire, or as its
	// goroutine replies its final reply. The read loop demuxes frames
	// through it and the goroutines leave it, so mu guards it.
	tenant string
	mu     sync.Mutex
	jobs   map[uint32]*sessJob
}

// job returns job id from the connection's table, nil when none is there.
func (ws *workerSession) job(id uint32) *sessJob {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.jobs[id]
}

// feeding returns job id while it takes frames: in the table, its EOS not
// yet read. A run or end frame for any other id is connection-fatal.
func (ws *workerSession) feeding(id uint32) *sessJob {
	if j := ws.job(id); j != nil && !j.eosSeen.Load() {
		return j
	}
	return nil
}

// drop takes j out of the table, if it is still there.
func (ws *workerSession) drop(j *sessJob) {
	ws.mu.Lock()
	if ws.jobs[j.id] == j {
		delete(ws.jobs, j.id)
	}
	ws.mu.Unlock()
}

// reply writes one REPLY frame for job j and flushes it, tallying it under
// j's kind first: a coordinator holding the reply finds it in a Snapshot.
func (ws *workerSession) reply(j *sessJob, r *reply) error {
	w := ws.w
	w.tallyMu.Lock()
	t := &w.tally[j.kind]
	t.Replies++
	if r.Final {
		t.Finals++
	}
	t.Stages.Add(&r.Stages)
	w.tallyMu.Unlock()
	ws.wmu.Lock()
	defer ws.wmu.Unlock()
	if err := writeCtl(ws.bw, wire.Reply, j.id, r); err != nil {
		return err
	}
	return ws.bw.Flush()
}

// retire is the one way a job leaves the worker — after its reply, on ABORT,
// and when the connection dies under it: cancel its context, recycle its
// buffers and stop its helper goroutines, give back its admission slot,
// leave the table, remove the transfer a peer job opened with whatever it
// still holds (a later contribution finds none and is refused), and only
// then retire its drain accounting.
func (ws *workerSession) retire(j *sessJob) {
	j.cancel()
	j.release()
	if j.releaseSlot != nil {
		j.releaseSlot()
	}
	ws.drop(j)
	if j.peerSt != nil {
		ws.w.closeTransfer(j.token, j.peerSt)
	}
	if j.counted {
		ws.w.endJob(ws.cs)
	}
}

// openJob serves an OPEN: refuse a job number still in the table or a
// payload over maxOpenPayload, decode the record, register the job (its
// context, table and drain accounting) and settle everything its open
// decides before its join goroutine starts: a job a draining worker refuses,
// one naming a sender past maxPeerSenders where its kind names one, or an
// unknown condition; a peer job's transfer; a count, pairs or plan job's
// admission slot. A job refused any of these starts poisoned: its frames
// drain and its reply carries the error. A peer job then answers with an
// interim REPLY — the acknowledgment the coordinator awaits before any
// PLAN2, or the open's refusal. An error is connection-fatal: job number
// reuse, an oversized or undecodable open, a dead connection, or the worker
// killed while the open queued for admission.
func (ws *workerSession) openJob(br *bufio.Reader, id uint32, n int) error {
	var o open
	if ws.job(id) != nil {
		return fmt.Errorf("job %d reopened", id)
	}
	if err := readCtl(br, n, maxOpenPayload, &o); err != nil {
		return err
	}
	clk := stage.Start()
	w, k := ws.w, &kinds[o.Kind]
	j := &sessJob{id: id, kind: o.Kind, workerID: o.WorkerID, st: o.Stats, token: o.Token, ws: ws}
	j.ctx, j.cancel = context.WithCancel(ws.ctx)
	if o.Kind == kindPlan {
		j.plan2 = make(chan *plan2, 1)
	}
	ws.mu.Lock()
	ws.jobs[id] = j
	ws.mu.Unlock()
	j.counted = w.beginJob(ws.cs, o.Kind == kindContrib)
	cond, err := o.Cond.Condition()
	switch {
	case !j.counted:
		j.err = &rejectError{code: codeDraining, msg: "worker shutting down"}
	case k.sender && o.WorkerID >= maxPeerSenders:
		j.err = fmt.Errorf("open names sender %d, want below %d", o.WorkerID, maxPeerSenders)
	case o.Kind == kindContrib: // joins nothing: its condition is unused
	case err != nil:
		j.err = err
	default:
		j.cond = cond
	}
	if o.Kind == kindPeer && j.err == nil {
		// The token's transfer, complete at the open's sender count; the join
		// goroutine parks on it at EOS. A refusal fails this job, never
		// another's transfer.
		j.peerSt, j.err = w.openTransfer(o.Token, o.Senders)
	}
	if k.admit && j.err == nil {
		// A count, pairs or plan job is admitted HERE, before its data frames
		// are read: an un-admitted job buffers nothing worker-side — its
		// frames stay in the kernel socket buffer, TCP backpressure stalls
		// the coordinator's (whole-job, contiguous) send, and a saturating
		// tenant is throttled to the rate the fair scheduler dispatches it.
		// Blocking this read loop is deadlock-free: sends are contiguous per
		// job on a connection, so every earlier job here is fully received,
		// and slot holders only ever do finite compute (plan jobs release
		// before their stats park; peer and stream jobs hold none while
		// parked, admitting per seal and per probe). A rejection fails just
		// this job, with its typed code.
		j.releaseSlot, j.err = w.admitJob(j.ctx, ws.tenant)
		clk.Mark(stage.Admit)
	}
	j.start(clk)
	if errors.Is(j.err, errAbandoned) {
		return j.err // worker killed: the connection is going down anyway
	}
	if o.Kind != kindPeer {
		return nil
	}
	var ack reply
	if j.err != nil {
		ack.Err, ack.Code = j.err.Error(), rejectCode(j.err)
	}
	return ws.reply(j, &ack)
}

// endFrame serves the fixed-layout frames that close a run of key frames
// (BASEEND, WINEND). It reports false when the connection must die: unknown
// job, wrong frame length, I/O error. An end the job cannot accept fails only
// the job.
func (ws *workerSession) endFrame(br *bufio.Reader, typ byte, id uint32, n int) bool {
	var buf [streamWinHdrLen]byte // the longer of the two
	h := buf[:endFrameLen[typ]]
	j := ws.feeding(id)
	if j == nil || n != len(h) {
		return false
	}
	if _, err := io.ReadFull(br, h); err != nil {
		return false
	}
	j.streamEnd(typ, h)
	return true
}

// streamEnd closes one run of base frames (h is [epoch u32][total u32]) or of
// window frames ([window u32] ahead of the same): its exact total must match
// the running count. Any job's but a stream's end declares the relation; a
// stream's count restarts for its next epoch or window. The end reaches a
// goroutine failed or not: a stream's window end is what makes it reply, and
// the coordinator collects windows in lockstep.
func (j *sessJob) streamEnd(typ byte, h []byte) {
	ev := runEvent(typ, h)
	i, err := j.runRel(ev)
	if err != nil {
		j.fail(err)
		return
	}
	r := &j.rels[i]
	if r.pos != ev.total {
		j.fail(fmt.Errorf("stream frame type %d ends a run of %d tuples, declares %d", typ, r.pos, ev.total))
	}
	if j.fed() {
		r.declared = true
	} else {
		r.pos = 0
	}
	ev.rel = i
	j.feed(ev)
}

// dataFrame serves the key frames (BASE, WIN). A frame for a failed
// job is consumed and dropped; a *protoErr from the decoder — which has
// consumed the frame — fails only the job; anything else (unknown job, frame
// shorter than its sub-header, I/O error) reports false: the connection's
// framing is lost.
func (ws *workerSession) dataFrame(br *bufio.Reader, typ byte, id uint32, n int) bool {
	j := ws.feeding(id)
	if j == nil {
		return false
	}
	if j.err != nil {
		_, err := io.CopyN(io.Discard, br, int64(n))
		return err == nil
	}
	err := j.readKeyFrame(br, typ, n)
	if pe, ok := err.(*protoErr); ok {
		j.fail(pe)
		return true
	}
	return err == nil
}

// handleSession serves one session connection, whose prelude named tenant,
// until the coordinator hangs up or the worker shuts down. Returning is
// connection-fatal: framing is the only thing that keeps the two sides in
// sync, so any frame the loop cannot account for ends the connection, and
// teardown retires the jobs still streaming in — there is nothing to reply
// to. Cancelling the connection's context ends every job past its EOS too:
// each goroutine exits silently and retires its own.
func (w *Worker) handleSession(br *bufio.Reader, conn net.Conn, cs *connState, tenant string) {
	ctx, hangUp := context.WithCancel(w.ctx)
	ws := &workerSession{w: w, cs: cs, conn: conn, ctx: ctx,
		bw: bufio.NewWriterSize(conn, connBufSize), tenant: tenant, jobs: make(map[uint32]*sessJob)}
	defer func() {
		hangUp()
		// Nothing can be replied anymore, so hang up before retiring: a stream
		// goroutine wedged in a reply write fails out of it instead of wedging
		// the retire that waits for it.
		_ = conn.Close()
		var feeding []*sessJob
		ws.mu.Lock()
		for _, j := range ws.jobs {
			if !j.eosSeen.Load() {
				feeding = append(feeding, j)
			}
		}
		ws.mu.Unlock()
		for _, j := range feeding {
			ws.retire(j)
		}
	}()

	for {
		disarmConn(conn)
		typ, id, n, err := readFrameHeader(br)
		if err != nil {
			return
		}
		armConn(conn)
		switch typ {
		case wire.Open:
			if ws.openJob(br, id, n) != nil {
				return
			}

		case wire.Plan2:
			var p plan2
			if readCtl(br, n, maxControlPayload, &p) != nil {
				return
			}
			// The plan job takes it when it parks. One for another kind of
			// job, for an id not in the table, or behind one still waiting
			// there is dropped.
			if j := ws.job(id); j != nil && j.plan2 != nil {
				select {
				case j.plan2 <- &p:
				default:
				}
			}

		case wire.StreamBaseEnd, wire.StreamWinEnd:
			if !ws.endFrame(br, typ, id, n) {
				return
			}

		case wire.StreamBase, wire.StreamWin:
			if !ws.dataFrame(br, typ, id, n) {
				return
			}

		case wire.EOS:
			j := ws.feeding(id)
			if j == nil || n != 0 {
				return
			}
			// The goroutine replies the job's totals and retires the job
			// itself as it exits. Chunks a count job consumed before this
			// frame decoded overlapped the stream — the counter the
			// coordinator's BuildOverlappedChunks aggregates.
			j.eosSeen.Store(true)
			j.feed(streamEvent{kind: evStreamEOS})

		case wire.Abort:
			// The coordinator abandoned the job: mid-send (a validation
			// failure on its side), or parked past its EOS (a failed
			// pipeline). Discard its state, reply with nothing. Before its
			// EOS the job retires here; after, its context ends whatever it
			// waits in and its goroutine retires it. An abort for a job not
			// in the table (unknown, or already replied) is ignored.
			if n != 0 {
				return
			}
			switch j := ws.job(id); {
			case j == nil:
			case j.eosSeen.Load():
				j.cancel()
			default:
				ws.retire(j)
			}

		default:
			return // unknown frame type: connection-fatal
		}
	}
}

// protoErr marks a job-level protocol violation: the job fails with an
// error reply but the connection (and its framing) stays intact. cause, when
// set, preserves a typed underlying error (a quota rejection surfaced
// mid-stream) for rejectCode's errors.As walk.
type protoErr struct {
	msg   string
	cause error
}

func (e *protoErr) Error() string { return e.msg }

func (e *protoErr) Unwrap() error { return e.cause }

// drainFrame consumes the rest bytes left of a data frame its decoder
// rejected, so the stream stays in sync for the connection's other jobs, and
// returns e. What is drained is what the FRAME header declared, not what an
// embedded count implies: the frame length is the framing contract.
func drainFrame(br *bufio.Reader, rest int, e *protoErr) error {
	if _, err := io.CopyN(io.Discard, br, int64(rest)); err != nil {
		return err
	}
	return e
}

// readKeySubHdr is the first step of every key-frame decode: read the type's
// fixed sub-header into h (sized by keySubHdrLen) and take the key count from
// its last four bytes. A frame too short to hold its
// sub-header is connection-fatal (the plain error propagates as one):
// consuming past its declared length would desynchronize the stream. A count
// the frame length contradicts is refused, the frame drained: a *protoErr.
func readKeySubHdr(br *bufio.Reader, typ byte, n int, h []byte) (count int, err error) {
	if n < len(h) {
		return 0, fmt.Errorf("frame type %d length %d below sub-header size %d", typ, n, len(h))
	}
	if _, err := io.ReadFull(br, h); err != nil {
		return 0, err
	}
	count = int(binary.LittleEndian.Uint32(h[len(h)-4:]))
	if n != len(h)+8*count {
		return 0, drainFrame(br, n-len(h),
			&protoErr{msg: fmt.Sprintf("frame type %d length %d inconsistent with count %d", typ, n, count)})
	}
	return count, nil
}

// readKeyFrame is the one decoder of key-carrying session frames (STREAMBASE,
// STREAMWIN): readKeySubHdr's step, then the keys. Every refusal past that
// step is job-level too: the rest of the frame is drained and a *protoErr
// returned. Every accepted frame is capped by its run's running count (the
// exact total validates at the run's end frame), charged 8 B per key to the
// job's tenant, then decoded into its own pooled chunk, which becomes the join
// goroutine's next event. A refused charge fails the job like any other
// refusal.
func (j *sessJob) readKeyFrame(br *bufio.Reader, typ byte, n int) error {
	var hb [maxKeySubHdrLen]byte
	h := hb[:keySubHdrLen[typ]]
	count, err := readKeySubHdr(br, typ, n, h)
	if err != nil {
		return err
	}
	refuse := func(err error) error {
		return drainFrame(br, n-len(h), &protoErr{msg: err.Error(), cause: err})
	}
	ev := runEvent(typ, h)
	i, err := j.runRel(ev)
	if err != nil {
		return refuse(err)
	}
	if overRelationCap(j.rels[i].pos, count) {
		return refuse(fmt.Errorf("frame type %d runs past %d tuples", typ, MaxRelationTuples))
	}
	if err := j.charge(8 * int64(count)); err != nil {
		return refuse(err)
	}
	keys := bufpool.Keys.Get(count)
	if err := readKeysLE(br, keys); err != nil {
		bufpool.Keys.Put(keys)
		return err
	}
	j.rels[i].pos += count
	ev.rel, ev.keys = i, keys
	j.feed(ev)
	return nil
}

// validateComplete checks at EOS that every run a job but a stream takes
// ended, and that a plan job's re-key column covers relation 2.
func (j *sessJob) validateComplete() error {
	k := &kinds[j.kind]
	for i, r := range j.rels[:2] {
		if !r.declared && (i == k.base || i == 1 && k.wins > 0) {
			return fmt.Errorf("relation %d's run never ended", i+1)
		}
	}
	switch rekey := &j.rels[2]; {
	case j.kind != kindPlan:
	case !rekey.declared:
		return fmt.Errorf("plan job without relation 2's re-key column")
	case rekey.pos != j.rels[1].pos:
		return fmt.Errorf("re-key column holds %d keys for relation 2's %d tuples", rekey.pos, j.rels[1].pos)
	}
	return nil
}

// runPlanJob executes a stage-1 plan job's join, statistics exchange and peer
// re-shuffle: each match materializes as its relation-2 tuple's entry in the
// re-key column; the worker summarizes the matches, replies the summary as a
// window reply and parks until the replanned artifact arrives or the job's
// context ends (its ABORT, the hang-up, Close); the artifact routes the matches
// (batch-routed through the shared exec shuffle, deterministic per sender),
// and each stage-2 worker's share, empty or not, goes directly to that peer as
// a contribution sub-job under this session's tenant, all at once. It returns
// the match count and the per-receiver count vector once every peer committed
// its share. Errors name the peer address.
func (ws *workerSession) runPlanJob(j *sessJob, r1, r2, rekey []join.Key) (int64, []int64, error) {
	w, clk := ws.w, &j.clk
	// The three stage-1 steps exec.Local runs too: materialize, summarize
	// (which sorts the matches), and (after the park below) route in key order.
	inter := exec.StageMatches(r1, r2, rekey, j.cond)
	clk.Mark(stage.Probe)
	// The matches are the one buffer no frame declared: the join sizes it. It
	// is charged like received keys the moment its size is known, before the
	// job parks holding it; release credits it.
	if err := j.charge(8 * int64(len(inter))); err != nil {
		return 0, nil, err
	}
	sender := j.workerID
	enc, err := exec.StageSummary(inter, j.st, sender)
	if err != nil {
		return 0, nil, err
	}
	clk.Mark(stage.Summarize)
	if ws.reply(j, &reply{Summary: enc}) != nil {
		return 0, nil, errAbandoned // connection dead; nothing to reply to
	}
	clk.Mark(stage.Reply)
	// Release the execution slot across the park: the compute is done and
	// the wait is on the COORDINATOR (merging every worker's summary), so
	// holding a slot here could let one query's parked fleet starve the jobs
	// whose stats the coordinator is still waiting for. The release is
	// once-guarded, so retire's stays a no-op; the post-park re-shuffle runs
	// unslotted (routing + socket writes, not join compute).
	j.releaseSlot()
	var ps *plan2
	select {
	case ps = <-j.plan2:
	case <-j.ctx.Done():
		return 0, nil, errAbandoned
	}
	clk.Mark(stage.FrameWait)

	art, err := planio.Decode(ps.Plan)
	if err != nil {
		return 0, nil, fmt.Errorf("stage-2 plan: %w", err)
	}
	j2 := art.Scheme.Workers()
	if j2 != len(ps.Peers) {
		return 0, nil, fmt.Errorf("stage-2 plan routes to %d workers, address map has %d", j2, len(ps.Peers))
	}
	ks := exec.RouteStage(inter, art, sender)
	defer ks.Release()
	counts := make([]int64, j2)
	err = fanOut(j2, func(p int) error {
		// Every receiver hears from every sender, an empty share included:
		// its transfer is complete at the sender count its open declared.
		blk := ks.Worker(p)
		counts[p] = int64(len(blk))
		if p == ps.Self {
			if err := w.deliverLocal(j.token, sender, ws.tenant, blk); err != nil {
				return fmt.Errorf("to self: %w", err)
			}
			return nil
		}
		return contribute(j.ctx, ps.Peers[p], ws.tenant, w.timeouts, j.token, sender, blk)
	})
	if err != nil && j.ctx.Err() != nil {
		return 0, nil, errAbandoned
	}
	if err != nil {
		return 0, nil, fmt.Errorf("transfer %d: %w", j.token, err)
	}
	clk.Mark(stage.Route)
	return int64(len(inter)), counts, nil
}
