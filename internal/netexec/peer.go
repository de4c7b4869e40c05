package netexec

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ewh/internal/bufpool"
	"ewh/internal/join"
	"ewh/internal/wire"
)

// This file is the worker→worker half of the stage-aware pipeline: a
// stage-1 worker that executed a plan job re-shuffles its matches by the
// stage-2 plan and ships each stage-2 worker's share DIRECTLY to that peer
// as one contribution sub-job — a session of its own, dialed under the plan
// job's tenant: an OPEN naming the transfer token and the sender, one base
// run, EOS, and the receiver's final REPLY once it committed the share (or
// why it refused). The receiving side commits them to the transfer its
// stage-2 job's open created under the coordinator-issued 64-bit token; the
// coordinator sends no PLAN2 before every such open is acknowledged, so a
// contribution to a token no transfer holds is refused. Every sender
// contributes to every receiver exactly once, empty shares included, so a
// transfer is complete at the sender count its open declared; the parked job
// then probes the contributions where they landed, and its retire removes the
// transfer. The intermediate never transits the coordinator — it only sees
// the count vectors riding the stage-1 final replies, and checks stage-2
// replies against them.

// peerTokenBase and peerTokenCtr make transfer tokens unique across
// coordinators sharing a worker pool: a process-random base plus a counter.
var (
	peerTokenBase = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return 0x9e3779b97f4a7c15 // deterministic fallback; collisions still need equal counters
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
	peerTokenCtr atomic.Uint64
)

// newPeerToken issues a pipeline's transfer token.
func newPeerToken() uint64 { return peerTokenBase + peerTokenCtr.Add(1) }

// ---------- sender side ----------

// contribute ships keys, sender's share of transfer token, to the stage-2
// worker at addr as one contribution sub-job under tenant, over a session
// dialed with t, and returns once the receiver replied it committed them.
// ctx ending abandons the dial and the wait. Every error names the peer; a
// transport failure — or a draining receiver's refusal — indicts it
// (peerFaultError), while any other refusal is the receiver's reason, under
// the receiver's code (a quota, a transfer not open) where it had one.
func contribute(ctx context.Context, addr, tenant string, t Timeouts, token uint64, sender int, keys []join.Key) error {
	s, err := DialTenant(ctx, tenant, []string{addr}, t)
	if err == nil {
		defer s.Close()
		stop := context.AfterFunc(ctx, func() { _ = s.Close() })
		defer stop()
		err = s.conns[0].runContribution(s.ids.Add(1), token, sender, keys)
	}
	if err == nil {
		return nil
	}
	var f *WorkerFault
	if !errors.As(err, &f) {
		return fmt.Errorf("peer %s: %w", addr, err)
	}
	err = fmt.Errorf("peer %s: %w", addr, f.Err)
	switch {
	case f.retry && f.code != codeCancelled:
		return &peerFaultError{addr: addr, err: err}
	case f.code != codeNone:
		return &rejectError{code: f.code, msg: err.Error()}
	}
	return err
}

// runContribution is the contribution sub-job: its open, one base run and
// EOS in one send, then the final reply, whose count must be the share's.
func (c *sessConn) runContribution(id uint32, token uint64, sender int, keys []join.Key) error {
	j, err := c.open("contribution", id, sender, 0, nil)
	if err != nil {
		return err
	}
	defer j.close()
	err = j.send(func(bw *bufio.Writer) error {
		if err := writeCtl(bw, wire.Open, j.id, &open{Kind: kindContrib, WorkerID: sender, Token: token}); err != nil {
			return err
		}
		if err := writeRun(bw, j.id, true, 0, 0, keys); err != nil {
			return err
		}
		return writeFrameHeader(bw, wire.EOS, j.id, 0)
	})
	if err != nil {
		return err
	}
	r, err := j.await("commit", false)
	if err == nil && r.InputR1 != int64(len(keys)) {
		err = j.proto(fmt.Errorf("committed %d of %d tuples", r.InputR1, len(keys)))
	}
	return err
}

// ---------- receiver side ----------

// peerContrib is one sender's committed share of a transfer: its chunks, as
// its run's key frames decoded them, holding n keys charged to tenant.
type peerContrib struct {
	tenant string
	chunks [][]join.Key
	n      int
}

// recycle pools c's chunks and credits their charge.
func (c *peerContrib) recycle(l *ledger) {
	for _, keys := range c.chunks {
		bufpool.Keys.Put(keys)
	}
	l.credit(c.tenant, 8*int64(c.n))
}

// peerJobState is one transfer: created by its stage-2 job's open with the
// sender count that says when it is complete, removed by that job's retire.
// It accumulates the senders' contributions and signals ready once all are
// committed, and the job takes them (a count probes them in any order).
type peerJobState struct {
	ledger  *ledger // the worker's: each contribution stays charged to its tenant
	mu      sync.Mutex
	contrib map[int]*peerContrib // the job's to take when done && err == nil
	tuples  int64                // across contributions (relation cap)
	senders int
	err     error
	done    bool
	ready   chan struct{} // closed once complete or failed
}

// failLocked poisons an unfinished transfer; waiters observe err after ready
// closes.
func (st *peerJobState) failLocked(err error) {
	if st.done {
		return
	}
	st.done = true
	st.err = err
	st.releaseLocked()
	close(st.ready)
}

// releaseLocked recycles every committed contribution.
func (st *peerJobState) releaseLocked() {
	for s, c := range st.contrib {
		c.recycle(st.ledger)
		delete(st.contrib, s)
	}
}

// cancel fails the transfer however far it got: an unfinished one wakes its
// job into the error, a complete one gives back what its job has not taken.
func (st *peerJobState) cancel() {
	st.mu.Lock()
	defer st.mu.Unlock()
	cancelled := &rejectError{code: codeCancelled, msg: "transfer cancelled"}
	st.failLocked(cancelled)
	st.releaseLocked()
	if st.err == nil {
		st.err = cancelled // a job taking it this late must not join nothing
	}
}

// commit is the one admission rule for a contribution, in memory
// (deliverLocal) or at a contribution sub-job's EOS: a transfer its stage-2
// job opened and still holds, a new sender below the sender count, within a
// relation's tuple cap across the transfer. Committed, c's chunks and their
// charge are the transfer's. Refused, they stay the caller's, and a transfer
// still assembling fails — and with it the stage-2 job parked on it. A token
// no open declared, or whose job has retired, is refused with codeCancelled.
func (w *Worker) commit(token uint64, sender int, c *peerContrib) error {
	w.peersMu.Lock()
	st := w.peerStates[token]
	w.peersMu.Unlock()
	if st == nil {
		return &rejectError{code: codeCancelled, msg: fmt.Sprintf("transfer %d is not open", token)}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var err error
	switch {
	case st.done && st.err != nil:
		err = st.err
	case st.done:
		err = fmt.Errorf("contribution from sender %d to a complete transfer", sender)
	case st.contrib[sender] != nil:
		err = fmt.Errorf("duplicate contribution from sender %d", sender)
	case sender >= st.senders:
		err = fmt.Errorf("contribution from sender %d of a %d-sender transfer", sender, st.senders)
	case st.tuples+int64(c.n) > MaxRelationTuples:
		err = fmt.Errorf("transfer contributions exceed %d tuples at sender %d", MaxRelationTuples, sender)
	default:
		st.tuples += int64(c.n)
		st.contrib[sender] = c
		if len(st.contrib) == st.senders {
			st.done = true
			close(st.ready)
		}
		return nil
	}
	st.failLocked(err)
	return err
}

// maxPeerStates bounds the transfers a worker holds at once: one per stage-2
// job open on it, so it bounds those opens; the keys contributions hold are
// the ledger's to bound. (The worker, like the session protocol, trusts its
// cluster network — TLS + auth is ROADMAP.)
const maxPeerStates = 1 << 12

// openTransfer creates token's transfer for a stage-2 job's open, complete at
// senders contributions. It refuses a count outside [1, maxPeerSenders], a
// token another open holds, and a full table — failing only the opening job.
func (w *Worker) openTransfer(token uint64, senders int) (*peerJobState, error) {
	if senders < 1 || senders > maxPeerSenders {
		return nil, fmt.Errorf("peer job declares %d senders, want 1 to %d", senders, maxPeerSenders)
	}
	w.peersMu.Lock()
	defer w.peersMu.Unlock()
	switch {
	case w.peerStates[token] != nil:
		return nil, fmt.Errorf("transfer already opened by another job")
	case len(w.peerStates) >= maxPeerStates:
		return nil, fmt.Errorf("transfer table full (%d tokens)", maxPeerStates)
	}
	st := &peerJobState{ledger: w.ledger, contrib: make(map[int]*peerContrib),
		senders: senders, ready: make(chan struct{})}
	w.peerStates[token] = st
	return st, nil
}

// closeTransfer is a stage-2 job's retire: its transfer leaves the table and
// gives back whatever it still holds, so a later contribution finds no
// transfer and one racing the removal is refused by the cancel.
func (w *Worker) closeTransfer(token uint64, st *peerJobState) {
	w.peersMu.Lock()
	delete(w.peerStates, token)
	w.peersMu.Unlock()
	st.cancel()
}

// deliverLocal is the self-contribution path: a worker that hosts both the
// sending stage-1 job and the receiving stage-2 worker moves the share in
// memory, charged to the plan job's tenant as a contribution's key frames
// are. The keys are copied — the caller's shuffle buffer is recycled.
func (w *Worker) deliverLocal(token uint64, sender int, tenant string, keys []join.Key) error {
	if err := w.ledger.charge(tenant, 8*int64(len(keys))); err != nil {
		return err
	}
	c := &peerContrib{tenant: tenant, n: len(keys)}
	if len(keys) > 0 {
		c.chunks = [][]join.Key{append(bufpool.Keys.Get(len(keys))[:0], keys...)}
	}
	err := w.commit(token, sender, c)
	if err != nil {
		c.recycle(w.ledger)
	}
	return err
}
