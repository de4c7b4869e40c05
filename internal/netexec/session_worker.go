package netexec

import (
	"bufio"
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
	"ewh/internal/planio"
)

// This file is the worker side of the session protocol: one read loop per
// connection demultiplexes numbered jobs. Every job walks the same path —
// openJob registers it and starts its join goroutine (stream_worker.go),
// endFrame/dataFrame decode its relations' base and window runs, each key
// frame into its own pooled chunk handed to that goroutine, and retire is the
// single exit, shared with ABORT and connection teardown. The open's kind
// fixes how the goroutine joins: a pairs or stage-1 plan job keeps its runs'
// chunks in arrival order and joins them at EOS; every other job joins while
// the frames arrive. Either way the read loop keeps draining the next job's
// frames. Job-level protocol violations fail only that job (its remaining
// frames are read and discarded, then an error reply ends it); frame-level
// corruption is connection-fatal — framing is the only thing that lets the
// two sides stay in sync.

// sessRel is one relation of an in-flight session job — or, in the job's
// third slot, a plan job's re-key column, its window 1. Every relation
// arrives as a run of base or window frames and knows its count only at the
// run's end frame: pos is the running count, and the end declares it final.
type sessRel struct {
	declared bool
	pos      int
}

// sessJob is one numbered job in flight on a session connection.
type sessJob struct {
	id       uint32
	kind     byte // the open's job kind
	workerID int
	cond     join.Condition
	counted  bool // beginJob admitted it (draining workers refuse)
	err      error
	rels     [3]sessRel

	// ws is the connection the job arrived on; its tenant keys the job's
	// account in the worker's ledger. charged is the job's reservation there:
	// the read loop charges each key frame before decoding it, a plan job its
	// matches, a peer-fed job the transfer it takes; a join goroutine credits
	// buffers back as they leave worker memory, release() sweeps the rest.
	ws      *workerSession
	charged atomic.Int64
	// releaseSlot returns the job's admission slot (idempotent); nil while the
	// job holds none (rejected at open, or a peer or stream job, which admit
	// per seal and per probe on the join goroutine).
	releaseSlot func()

	// token is a plan or peer job's transfer id. A plan job's matches are
	// materialized worker-side, summarized, re-shuffled by the plan the
	// coordinator builds from the summaries and streamed to peers instead of
	// returning as pairs; plan2 is its entry in the connection's plan2Table,
	// registered at its open and removed by retire. A peer job's relation 1
	// arrives over the peer mesh: peerSt is the transfer state, set once the
	// open's sender count was accepted, and peerTaken flips once the join
	// goroutine took the contributions out of the transfer table, so retire
	// leaves the token alone.
	token     uint64
	plan2     *plan2Waiter
	peerTaken bool
	peerSt    *peerJobState

	// stream is the goroutine the job's key frames feed (see
	// stream_worker.go), started at the job's open.
	stream *sessStream
}

// fail records the job's first error; subsequent data frames for the job
// are drained and discarded. A stream's goroutine owns its reply path, so it
// is told too.
func (j *sessJob) fail(err error) {
	if j.err != nil {
		return
	}
	j.err = err
	j.stream.feed(streamEvent{kind: evStreamFail, err: err})
}

func (j *sessJob) release() {
	// Every job exit path lands here, so the join goroutine never outlives
	// the job (a no-op wait when the goroutine itself retires the job after
	// its EOS). It must be gone before the sweep below.
	j.stream.stop()
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
	if typ == frameV3StreamWin || typ == frameV3StreamWinEnd {
		ev.kind, ev.win, ev.epoch = evStreamWin, u32(0), u32(4)
	}
	if typ == frameV3StreamBaseEnd || typ == frameV3StreamWinEnd {
		ev.kind++ // a run's end event follows its key event
	}
	return ev
}

// runRel admits a frame of a base or window run (ev, less its keys) and
// returns the relation it advances. A stream's runs span epochs and windows,
// which its goroutine checks: its base is relation 2, its windows relation 1.
// Every other job runs at epoch 0 and ends each run once: relation 1 is the
// base (a peer job's base is its relation 2, and its probe is the mesh
// transfer, so it takes no window), relation 2 window 0, and a plan job's
// re-key column window 1.
func (j *sessJob) runRel(ev streamEvent) (*sessRel, error) {
	base := ev.kind <= evStreamBaseEnd
	if j.kind == kindStream {
		if base {
			return &j.rels[1], nil
		}
		return &j.rels[0], nil
	}
	lastWin := uint32(0)
	if j.kind == kindPlan {
		lastWin = 1 // the re-key column
	}
	i := 0
	switch {
	case j.kind == kindPeer && !base:
		return nil, fmt.Errorf("window frames on a peer-fed job, whose probe is the mesh transfer")
	case ev.epoch != 0 || ev.win > lastWin:
		return nil, fmt.Errorf("a job's run at epoch %d, window %d, past epoch 0, window %d", ev.epoch, ev.win, lastWin)
	case j.kind == kindPeer:
		i = 1
	case !base:
		i = 1 + int(ev.win)
	}
	if j.rels[i].declared {
		return nil, fmt.Errorf("a job's frame after its run's end frame")
	}
	return &j.rels[i], nil
}

// plan2Waiter is one plan job's wait for the replanned artifact, from its
// open on. ch is buffered, so a PLAN2 or cancel read before the job parks
// waits there for it; a nil delivery means the transfer was cancelled.
type plan2Waiter struct {
	token uint64
	ch    chan *plan2
}

// plan2Table routes PLAN2 and cancel frames to the connection's plan jobs,
// from their open to their retire. One table per session connection;
// entries are keyed by job id.
type plan2Table struct {
	mu sync.Mutex
	m  map[uint32]*plan2Waiter
}

func newPlan2Table() *plan2Table {
	return &plan2Table{m: make(map[uint32]*plan2Waiter)}
}

func (t *plan2Table) add(id uint32, token uint64) *plan2Waiter {
	wt := &plan2Waiter{token: token, ch: make(chan *plan2, 1)}
	t.mu.Lock()
	t.m[id] = wt
	t.mu.Unlock()
	return wt
}

// remove drops wt if it is still job id's entry.
func (t *plan2Table) remove(id uint32, wt *plan2Waiter) {
	t.mu.Lock()
	if t.m[id] == wt {
		delete(t.m, id)
	}
	t.mu.Unlock()
}

// deliver hands a PLAN2 to job id's waiter; unknown ids are dropped (the job
// may have failed and replied already).
func (t *plan2Table) deliver(id uint32, ps *plan2) {
	t.mu.Lock()
	wt := t.m[id]
	delete(t.m, id)
	t.mu.Unlock()
	if wt != nil {
		wt.ch <- ps
	}
}

// cancel wakes every waiter parked on the cancelled transfer token with a
// nil plan.
func (t *plan2Table) cancel(token uint64) {
	t.mu.Lock()
	var woken []*plan2Waiter
	for id, wt := range t.m {
		if wt.token == token {
			woken = append(woken, wt)
			delete(t.m, id)
		}
	}
	t.mu.Unlock()
	for _, wt := range woken {
		wt.ch <- nil
	}
}

// workerSession is the worker side of one session connection: the state its
// read loop and the goroutines of its in-flight jobs share.
type workerSession struct {
	w    *Worker
	cs   *connState
	conn net.Conn

	wmu sync.Mutex // serializes reply frames across concurrent job goroutines
	bw  *bufio.Writer

	pt *plan2Table
	// done closes when the coordinator hangs up, abandoning every wait a job
	// of this connection is parked in (admission, peer transfer, PLAN2) —
	// their reply has nowhere to go anyway.
	done chan struct{}

	// tenant is the session's identity for admission and quota accounting,
	// named in its prelude ("" is anonymous). jobs is the read loop's demux
	// table: a job leaves it at its EOS or ABORT.
	tenant string
	jobs   map[uint32]*sessJob

	// planTokens rings the transfer tokens of this connection's latest plan
	// jobs (planNext is the next slot). A hang-up tombstones them, as the
	// PLANCANCEL that can no longer reach this worker would: senders on other
	// workers may still contribute to a transfer here whose stage-2 open never
	// arrived, and nothing else would release what they buffer.
	planTokens [64]uint64
	planNext   int
}

// reply writes one REPLY frame for job id and flushes it.
func (ws *workerSession) reply(id uint32, r *reply) error {
	ws.wmu.Lock()
	defer ws.wmu.Unlock()
	if err := writeCtl(ws.bw, frameV3Reply, id, r); err != nil {
		return err
	}
	return ws.bw.Flush()
}

// retire is the one way a job leaves the worker — after its reply, on ABORT,
// and when the connection dies under it: recycle its buffers and stop its
// helper goroutines, give back its admission slot, drop its PLAN2 wait,
// tombstone a peer transfer it opened but never consumed (so late
// contributions swallow instead of buffering for nobody), and only then
// retire its drain accounting.
func (ws *workerSession) retire(j *sessJob) {
	j.release()
	if j.releaseSlot != nil {
		j.releaseSlot()
	}
	if j.plan2 != nil {
		ws.pt.remove(j.id, j.plan2)
	}
	if j.peerSt != nil && !j.peerTaken {
		ws.w.dropPeerState(j.token)
	}
	if j.counted {
		ws.w.endJob(ws.cs)
	}
}

// openJob serves an OPEN: refuse a reused job number or a payload over
// maxOpenPayload, decode the record, register the job (table and drain
// accounting) and start its join goroutine, then take the kind's own step: a
// count, pairs or plan job takes its admission slot, a plan job registers its
// PLAN2 wait, a peer job attaches to its transfer. An error is
// connection-fatal: job number reuse, an oversized or undecodable open, or
// the worker killed while the open queued for admission. A job a draining
// worker refuses, or one naming an unknown condition, is FAILED instead, its
// goroutine poisoned: its frames drain and its reply carries the error.
func (ws *workerSession) openJob(br *bufio.Reader, id uint32, n int) error {
	var o open
	if ws.jobs[id] != nil {
		return fmt.Errorf("job %d reopened", id)
	}
	if err := readCtl(br, n, maxOpenPayload, &o); err != nil {
		return err
	}
	w := ws.w
	j := &sessJob{id: id, kind: o.Kind, workerID: o.WorkerID, token: o.Token, ws: ws}
	ws.jobs[id] = j
	j.counted = w.beginJob(ws.cs)
	cond, err := o.Cond.Condition()
	switch {
	case !j.counted:
		j.err = &rejectError{code: codeDraining, msg: "worker shutting down"}
	case err != nil:
		j.err = err
	default:
		j.cond = cond
	}
	j.stream = newSessStream(j, o.Stats)
	if j.err != nil {
		return nil
	}
	switch o.Kind {
	case kindCount, kindPairs, kindPlan:
		// Admission happens HERE, before the job's data frames are read: an
		// un-admitted job buffers nothing worker-side — its frames stay in the
		// kernel socket buffer, TCP backpressure stalls the coordinator's
		// (whole-job, contiguous) send, and a saturating tenant is throttled to
		// the rate the fair scheduler dispatches it. Blocking this read loop is
		// deadlock-free: sends are contiguous per job on a connection, so every
		// earlier job here is fully received, and slot holders only ever do
		// finite compute (plan jobs release before their stats park; peer and
		// stream jobs hold none while parked, admitting per seal and per
		// probe). A rejection fails just this job — its frames drain and the
		// reply carries the typed code.
		releaseSlot, aerr := w.admitJob(ws.tenant, w.kill, ws.done)
		if errors.Is(aerr, errAbandoned) {
			return aerr // worker killed: the connection is going down anyway
		}
		if aerr != nil {
			j.fail(aerr)
			return nil
		}
		j.releaseSlot = releaseSlot
		if o.Kind == kindPlan {
			// The PLAN2 wait is registered here, not when the job parks: a
			// PLANCANCEL follows the open on the connection, so it finds the
			// waiter however far the job has got.
			j.plan2 = ws.pt.add(id, o.Token)
			ws.planTokens[ws.planNext%len(ws.planTokens)] = o.Token
			ws.planNext++
		}
	case kindPeer:
		// Attach to (or create) the token's transfer and declare its sender
		// count, which says when it is complete; the join goroutine parks on
		// it at EOS. A refusal fails this job, never another's transfer.
		st := w.peerState(o.Token)
		if st == nil {
			j.fail(fmt.Errorf("transfer table full (%d tokens)", maxPeerStates))
		} else if err := st.expect(o.Senders); err != nil {
			j.fail(err)
		} else {
			j.peerSt = st
		}
	}
	return nil
}

// endFrame serves the fixed-layout frames that close a run of key frames
// (BASEEND, WINEND). It reports false when the connection must die: unknown
// job, wrong frame length, I/O error. An end the job cannot accept fails only
// the job.
func (ws *workerSession) endFrame(br *bufio.Reader, typ byte, id uint32, n int) bool {
	var buf [streamWinHdrLen]byte // the longer of the two
	h := buf[:endFrameLen[typ]]
	j := ws.jobs[id]
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
	r, err := j.runRel(ev)
	if err != nil {
		j.fail(err)
		return
	}
	if r.pos != ev.total {
		j.fail(fmt.Errorf("stream frame type %d ends a run of %d tuples, declares %d", typ, r.pos, ev.total))
	}
	if j.stream.fed() {
		r.declared = true
	} else {
		r.pos = 0
	}
	j.stream.feed(ev)
}

// dataFrame serves the key frames (BASE, WIN). A frame for a failed
// job is consumed and dropped; a *protoErr from the decoder — which has
// consumed the frame — fails only the job; anything else (unknown job, frame
// shorter than its sub-header, I/O error) reports false: the connection's
// framing is lost.
func (ws *workerSession) dataFrame(br *bufio.Reader, typ byte, id uint32, n int) bool {
	j := ws.jobs[id]
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
// to.
func (w *Worker) handleSession(br *bufio.Reader, conn net.Conn, cs *connState, tenant string) {
	ws := &workerSession{w: w, cs: cs, conn: conn,
		bw: bufio.NewWriterSize(conn, connBufSize), pt: newPlan2Table(),
		done: make(chan struct{}), tenant: tenant, jobs: make(map[uint32]*sessJob)}
	defer func() {
		close(ws.done)
		// Nothing can be replied anymore, so hang up before retiring: a stream
		// goroutine wedged in a reply write fails out of it instead of wedging
		// the retire that waits for it.
		_ = conn.Close()
		for _, j := range ws.jobs {
			ws.retire(j)
		}
		for _, token := range ws.planTokens {
			if token != 0 {
				w.dropPeerState(token)
			}
		}
	}()

	for {
		disarmConn(conn)
		typ, id, n, err := readV3FrameHeader(br)
		if err != nil {
			return
		}
		armConn(conn)
		switch typ {
		case frameV3Open:
			if ws.openJob(br, id, n) != nil {
				return
			}

		case frameV3Plan2:
			var p plan2
			if readCtl(br, n, maxControlPayload, &p) != nil {
				return
			}
			ws.pt.deliver(id, &p)

		case frameV3PlanCancel:
			var x cancelRec
			if readCtl(br, n, maxOpenPayload, &x) != nil {
				return
			}
			w.dropPeerState(x.Token)
			ws.pt.cancel(x.Token)

		case frameV3StreamBaseEnd, frameV3StreamWinEnd:
			if !ws.endFrame(br, typ, id, n) {
				return
			}

		case frameV3StreamBase, frameV3StreamWin:
			if !ws.dataFrame(br, typ, id, n) {
				return
			}

		case frameV3EOS:
			j := ws.jobs[id]
			if j == nil || n != 0 {
				return
			}
			delete(ws.jobs, id)
			// The goroutine replies the job's totals and retires the job
			// itself as it exits. Chunks a count job consumed before this
			// frame decoded overlapped the stream — the counter the
			// coordinator's BuildOverlappedChunks aggregates.
			j.stream.eosSeen.Store(true)
			j.stream.feed(streamEvent{kind: evStreamEOS})

		case frameV3Abort:
			// The coordinator abandoned the job mid-send (a validation
			// failure on its side): discard the partial state, reply with
			// nothing. An abort for an unknown job is ignored.
			if n != 0 {
				return
			}
			if j := ws.jobs[id]; j != nil {
				delete(ws.jobs, id)
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

// readKeySubHdr is the first step of every key-frame decode, session and mesh
// alike: read the type's fixed sub-header into h (sized by keySubHdrLen) and
// take the key count from its last four bytes. A frame too short to hold its
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
	r, err := j.runRel(ev)
	if err != nil {
		return refuse(err)
	}
	if overRelationCap(r.pos, count) {
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
	r.pos += count
	ev.keys = keys
	j.stream.feed(ev)
	return nil
}

// validateComplete checks at EOS that every run of a job but a stream
// ended, and that a plan job's re-key column covers relation 2. A peer job's
// relation 1 is exempt: it arrives over the mesh and the join goroutine
// probes it straight out of the transfer table.
func (j *sessJob) validateComplete() error {
	for i, r := range j.rels[:2] {
		if !r.declared && !(j.kind == kindPeer && i == 0) {
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
// window reply and parks until the replanned artifact (or a cancel, a kill, or
// the coordinator hanging up) arrives; the artifact routes the matches
// (batch-routed through the shared exec shuffle, deterministic per sender),
// and each stage-2 worker's share, empty or not, streams directly to that peer
// over the mesh. It returns the match count and the per-receiver count vector.
// Errors name the peer address.
func (ws *workerSession) runPlanJob(j *sessJob, r1, r2, rekey []join.Key) (int64, []int64, error) {
	w := ws.w
	// The three stage-1 steps exec.Local runs too: materialize, summarize,
	// and (after the park below) route.
	inter := exec.StageMatches(r1, r2, rekey, j.cond)
	// The matches are the one buffer no frame declared: the join sizes it. It
	// is charged like received keys the moment its size is known, before the
	// job parks holding it; release credits it.
	if err := j.charge(8 * int64(len(inter))); err != nil {
		return 0, nil, err
	}
	sender := j.workerID
	enc, err := exec.StageSummary(inter, j.stream.st, sender)
	if err != nil {
		return 0, nil, err
	}
	if ws.reply(j.id, &reply{Summary: enc}) != nil {
		return 0, nil, errAbandoned // connection dead; nothing to reply to
	}
	// Release the execution slot across the park: the compute is done and
	// the wait is on the COORDINATOR (merging every worker's summary), so
	// holding a slot here could let one query's parked fleet starve the jobs
	// whose stats the coordinator is still waiting for. The release is
	// once-guarded, so retire's stays a no-op; the post-park re-shuffle runs
	// unslotted (routing + socket writes, not join compute).
	j.releaseSlot()
	var ps *plan2
	select {
	case ps = <-j.plan2.ch:
		if ps == nil {
			return 0, nil, fmt.Errorf("stage-2 statistics plan cancelled by coordinator")
		}
	case <-w.kill:
		return 0, nil, errAbandoned
	case <-ws.done:
		return 0, nil, errAbandoned
	}

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
	for p := 0; p < j2; p++ {
		// Every receiver hears from every sender, an empty share included:
		// its transfer is complete at the sender count its open declared.
		blk := ks.Worker(p)
		counts[p] = int64(len(blk))
		if p == ps.Self {
			if err := w.deliverLocal(j.token, sender, blk); err != nil {
				return 0, nil, fmt.Errorf("transfer %d to self: %w", j.token, err)
			}
			continue
		}
		if err := w.sendToPeer(ps.Peers[p], j.token, sender, blk); err != nil {
			return 0, nil, fmt.Errorf("transfer %d: %w", j.token,
				&peerFaultError{addr: ps.Peers[p], err: err})
		}
	}
	return int64(len(inter)), counts, nil
}
