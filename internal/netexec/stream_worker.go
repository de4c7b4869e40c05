package netexec

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"

	"ewh/internal/bufpool"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/planio"
	"ewh/internal/stage"
)

// This file is the worker's join goroutine, one per job, started by openJob:
// the read loop decodes each key frame into its own pooled chunk
// (session_worker.go's readKeyFrame) and hands it over a bounded channel — a
// full channel is the backpressure onto TCP — and the goroutine is the job's
// only reply path, ending with the final REPLY after EOS. A pairs or stage-1
// plan job keeps each run's chunks in arrival order (its pair indices) and
// joins them at EOS (joinInOrder) under the slot its open took; a
// contribution keeps its one run's and commits them to its transfer at EOS
// (commit). Every other job counts: it holds one relation as the join's
// resident side (localjoin.Resident — dense, table or merge, the goroutine
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
//     Relation 1 is the base, the resident side: its frames are kept as they
//     decode and built into the side once, at its end frame, while relation
//     2, the window, is still on the wire; the window's frames probe as they
//     decode (a merge side keeps them for one sweep at the window's end). It
//     shares the worker's build cache, counts the frames taken before EOS
//     (reply.BuildOverlapped) and runs under the slot its open took.
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
	rel   int // the relation slot the read loop's runRel gave its run
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

// start starts the job's join goroutine, its clock running since the open.
// A job refused at its open starts poisoned.
func (j *sessJob) start(clk stage.Clock) {
	j.ch, j.done = make(chan streamEvent, streamEventDepth), make(chan struct{})
	j.failed, j.clk = j.err, clk
	j.resetBase()
	go j.run()
}

// fed reports any job but a stream: one resident relation, one probe
// relation, no window replies or summaries.
func (j *sessJob) fed() bool { return kinds[j.kind].wins >= 0 }

// feed hands one event to the goroutine. Read-loop side only.
func (j *sessJob) feed(ev streamEvent) { j.ch <- ev }

// stop terminates the goroutine (connection teardown, abort): close the
// channel and wait. Idempotent, and a plain no-op once the goroutine has
// exited — which is how the EOS path's own retire passes through here.
func (j *sessJob) stop() {
	j.stopO.Do(func() { close(j.ch) })
	<-j.done
}

// admit takes the admission slot a seal or a probe runs under. A count job
// still holds the one the read loop took at its open — queueing for a second
// would deadlock a one-slot worker against itself.
func (j *sessJob) admit() (release func(), err error) {
	if j.releaseSlot != nil {
		return func() {}, nil
	}
	defer j.clk.Mark(stage.Admit)
	return j.ws.w.admitJob(j.ctx, j.ws.tenant)
}

// consumed counts one chunk a fed job inserted or probed; before the read
// loop decoded EOS, that work overlapped the still-arriving frames.
func (j *sessJob) consumed() {
	if j.fed() && !j.eosSeen.Load() {
		j.overlapped++
	}
}

// poison records the goroutine's first error (nil is none): subsequent
// events recycle their buffers and the replies carry the error.
func (j *sessJob) poison(err error) {
	if j.failed == nil {
		j.failed = err
	}
}

// run is the join goroutine. After an EOS the read loop no longer retires
// the job, so the goroutine retires it itself on the way out — once done is
// closed, so retire's stop does not wait on its own caller.
func (j *sessJob) run() {
	defer func() {
		j.res.Drop() // release sweeps the reservation
		for _, run := range j.runs {
			for _, keys := range run {
				bufpool.Keys.Put(keys)
			}
		}
		close(j.done)
		if j.eosSeen.Load() {
			j.ws.retire(j)
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "netexec: worker: recovered in job %d from %s: %v\n%s",
				j.id, j.ws.conn.RemoteAddr(), r, debug.Stack())
		}
	}()
	for ev := range j.ch {
		j.clk.Mark(stage.FrameWait)
		if ev.kind < evStreamEOS && kinds[j.kind].ordered {
			// An ordered job keeps each key chunk in its run's slot; an end
			// frame carries nothing the read loop has not checked.
			if ev.keys != nil {
				j.runs[ev.rel] = append(j.runs[ev.rel], ev.keys)
			}
			continue
		}
		switch ev.kind {
		case evStreamFail:
			j.poison(ev.err)
		case evStreamBase:
			j.onBase(ev)
		case evStreamBaseEnd:
			j.onBaseEnd(ev)
		case evStreamWin:
			j.onWin(ev)
		case evStreamWinEnd:
			j.onWinEnd(ev)
		case evStreamEOS:
			j.onEOS()
			return
		}
	}
}

// flat returns run i as one slice: its only chunk as it arrived, or its
// chunks copied into one buffer, charged before it is taken — while both
// copies exist — and the chunks credited once copied.
func (j *sessJob) flat(i int) ([]join.Key, error) {
	run := j.runs[i]
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
	if err := j.charge(8 * int64(n)); err != nil {
		return nil, err
	}
	buf := bufpool.Keys.Get(n)[:0]
	for _, keys := range run {
		buf = append(buf, keys...)
		bufpool.Keys.Put(keys)
	}
	j.credit(8 * int64(n))
	j.runs[i] = [][]join.Key{buf}
	return buf, nil
}

// joinInOrder joins a pairs or plan job's runs as they arrived: a pairs job's
// matches stream back as index pairs, a plan job's re-shuffle to its peers
// (runPlanJob).
func (j *sessJob) joinInOrder() (reply, error) {
	var rels [3][]join.Key
	for i := range rels {
		var err error
		if rels[i], err = j.flat(i); err != nil {
			return reply{}, err
		}
	}
	j.clk.Mark(stage.Build)
	ws := j.ws
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
	j.clk.Mark(stage.Probe)
	return m, nil
}

// resetBase replaces the side with an empty one, dropping the old one and
// crediting its reservation. A count job's side, dense window or table, is
// shared through the worker's build cache; a stream's or peer-fed job's side
// stays uncached: job-unique, it would only churn the LRU.
func (j *sessJob) resetBase() {
	j.res.Drop()
	j.credit(8 * int64(j.baseN))
	var cache *localjoin.BuildCache
	if j.kind == kindCount {
		cache = j.ws.w.buildCache
	}
	j.res, j.baseN, j.sealed = localjoin.NewResident(j.cond, kinds[j.kind].base == 0, cache, &j.clk), 0, false
}

func (j *sessJob) onBase(ev streamEvent) {
	if j.failed == nil && j.sealed && ev.epoch == j.epoch {
		j.poison(fmt.Errorf("stream base re-opened for sealed epoch %d", ev.epoch))
	}
	if j.failed != nil {
		bufpool.Keys.Put(ev.keys)
		j.credit(8 * int64(len(ev.keys)))
		return
	}
	if ev.epoch != j.epoch {
		// First frame of a new epoch: replanned base replaces the old one.
		j.resetBase()
		j.epoch = ev.epoch
	}
	// Kept until the seal, the keys now live in the side: the reservation
	// stays until the epoch resets, covering that resident memory.
	j.consumed()
	j.baseN += len(ev.keys)
	j.res.Insert(ev.keys)
}

func (j *sessJob) onBaseEnd(ev streamEvent) {
	if j.failed != nil {
		return
	}
	if ev.epoch != j.epoch {
		if !j.sealed && j.baseN > 0 {
			j.poison(fmt.Errorf("stream base end for epoch %d amid epoch %d's chunks", ev.epoch, j.epoch))
			return
		}
		// A replanned base whose share for THIS worker is empty ships no
		// chunk frames, so the end frame alone opens (and seals) the epoch.
		j.resetBase()
		j.epoch = ev.epoch
	}
	if j.sealed {
		j.poison(fmt.Errorf("stream base end for already-sealed epoch %d", ev.epoch))
		return
	}
	release, err := j.admit()
	if err != nil {
		j.poison(err)
		return
	}
	// A failed job returned above, so it publishes nothing to the cache.
	j.res.Seal()
	release()
	j.sealed = true
}

// enterWin admits keys or an end frame for window win, routed under epoch,
// opening the window if it is not yet — or says why they cannot be taken. A
// count job's relation 2 ahead of relation 1's end frame lands on the first
// case: no sender produces it (sendJob writes relation 1 through its end
// first).
func (j *sessJob) enterWin(win, epoch uint32) error {
	switch {
	case !j.sealed:
		return fmt.Errorf("window %d ahead of any sealed base", win)
	case epoch != j.epoch:
		return fmt.Errorf("stream window %d routed for epoch %d, base is at %d", win, epoch, j.epoch)
	case j.winOpen && win != j.win:
		return fmt.Errorf("stream window %d interleaves with open window %d", win, j.win)
	case !j.winOpen:
		j.winOpen, j.win, j.winCount = true, win, 0
	}
	return nil
}

func (j *sessJob) onWin(ev streamEvent) {
	if j.failed == nil {
		j.poison(j.enterWin(ev.win, ev.epoch))
	}
	switch {
	case j.failed != nil:
	case !j.fed():
		// Kept to sort, summarize and probe under the window's slot.
		j.winKeys = append(j.winKeys, ev.keys...)
		bufpool.Keys.Put(ev.keys)
		return
	default:
		// A fed job's probe chunk counts as it lands, overlapping the frames
		// still on the wire; one the side keeps stays reserved to the tail.
		j.consumed()
		n, pooled := j.res.Probe(ev.keys)
		j.winCount += n
		j.winHeld += len(ev.keys) - pooled
		j.credit(8 * int64(pooled))
		return
	}
	bufpool.Keys.Put(ev.keys)
	j.credit(8 * int64(len(ev.keys)))
}

// onWinEnd closes the window (the read loop checked its total). A stream
// replies per window — the error, once failed, so the coordinator's lockstep
// collect never hangs; a fed job's totals ride its final reply at EOS.
func (j *sessJob) onWinEnd(ev streamEvent) {
	r := reply{Window: ev.win, Epoch: ev.epoch, InputR1: int64(ev.total)}
	if j.failed == nil {
		j.poison(j.enterWin(ev.win, ev.epoch)) // an empty window's end frame both opens and closes it
	}
	if j.failed == nil {
		j.poison(j.closeWindow(&r))
	}
	// The shard's receive bytes, and a failed window's kept chunks, leave here.
	j.res.Drop()
	j.credit(8 * int64(len(j.winKeys)+j.winHeld))
	j.winKeys, j.winHeld = j.winKeys[:0], 0
	j.winOpen = false
	if j.fed() {
		return
	}
	if j.failed != nil {
		r.Err = j.failed.Error()
		r.Code = rejectCode(j.failed)
	}
	// A failed write poisons the stream; the read loop sees the dead
	// connection. The write itself is the next window's first stage.
	r.Stages, j.clk.Record = j.clk.Record, stage.Record{}
	j.poison(j.ws.reply(j, &r))
	j.clk.Mark(stage.Reply)
}

// closeWindow fills r with the open window's match count and, for a stream
// (a fed job kept no window keys), the summary of its keys, which it sorts in
// place and probes in key order.
func (j *sessJob) closeWindow(r *reply) error {
	release, err := j.admit()
	if err != nil {
		return err
	}
	defer release()
	n, sum := exec.CloseWindow(j.res, j.winKeys, j.st, j.workerID, r.Window)
	if sum != nil {
		enc, err := planio.EncodeSummary(sum)
		if err != nil {
			return fmt.Errorf("window summary: %w", err)
		}
		r.Summary = enc
		j.clk.Mark(stage.Summarize)
	}
	r.Output = j.winCount + n
	j.totIn += r.InputR1
	j.totOut += r.Output
	return nil
}

// commit hands a contribution's run to its transfer whole, chunks and charge
// alike, and answers with its count; a refusal leaves both to the job.
func (j *sessJob) commit() (reply, error) {
	c := &peerContrib{tenant: j.ws.tenant, chunks: j.runs[0], n: j.rels[0].pos}
	if err := j.ws.w.commit(j.token, j.workerID, c); err != nil {
		return reply{}, err
	}
	j.runs[0] = nil
	j.charged.Add(-8 * int64(c.n))
	return reply{InputR1: int64(c.n)}, nil
}

// probeTransfer is a peer-fed job's probe: the stage-1 senders' contributions,
// taken out of the transfer and probed where they landed, then recycled, each
// credited to the tenant it was charged to. The wait ends when the transfer
// completes or fails, or the job's context ends; the job's retire removes the
// transfer.
func (j *sessJob) probeTransfer() error {
	w, st := j.ws.w, j.peerSt
	select {
	case <-st.ready:
	case <-j.ctx.Done():
		return errAbandoned
	}
	j.clk.Mark(stage.FrameWait)
	// Admission only once the transfer is complete: a slot holder must not
	// depend on stage-1 jobs that may be queued behind it on OTHER workers.
	release, err := j.admit()
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
	var blocks [][]join.Key
	for _, c := range contrib {
		j.totIn += int64(c.n)
		blocks = append(blocks, c.chunks...)
	}
	j.totOut += j.res.Finish(blocks...)
	for _, c := range contrib {
		c.recycle(w.ledger)
	}
	return nil
}

// onEOS replies the job's final REPLY; run retires the job next. The read
// loop is done with a job it saw the EOS of, so any job's runs but a
// stream's validate here; a contribution then commits, a pairs or plan job
// joins, a peer job takes its probe from the transfer. The job then leaves
// the connection's table, so its id is free once it replied. An abandoned job
// (its ABORT, the hang-up or Close while it waited) exits silently: nobody
// awaits its reply.
func (j *sessJob) onEOS() {
	if j.fed() && j.failed == nil {
		j.failed = j.validateComplete()
	}
	var m reply
	switch {
	case j.failed != nil:
	case j.kind == kindContrib:
		m, j.failed = j.commit()
	case kinds[j.kind].ordered:
		m, j.failed = j.joinInOrder()
	default:
		if j.kind == kindPeer {
			j.failed = j.probeTransfer()
		}
		m = reply{InputR1: j.totIn, InputR2: int64(j.baseN), Output: j.totOut, BuildOverlapped: j.overlapped}
		if kinds[j.kind].base == 0 {
			m.InputR1, m.InputR2 = m.InputR2, m.InputR1
		}
	}
	j.ws.drop(j)
	if errors.Is(j.failed, errAbandoned) {
		return
	}
	if j.failed != nil {
		m = reply{Err: j.failed.Error(), Code: rejectCode(j.failed)}
		// A contribution that could not reach its peer indicts the PEER, not
		// this worker: lift the address out of the error so the coordinator
		// excludes the right machine.
		var pf *peerFaultError
		if errors.As(j.failed, &pf) {
			m.FaultAddr = pf.addr
		}
	}
	m.Stages, m.Final = j.clk.Record, true
	_ = j.ws.reply(j, &m) // nothing left to tell a dead connection
}
