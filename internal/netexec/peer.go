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
)

// This file is the worker→worker half of the stage-aware pipeline: a
// stage-1 worker that executed a plan job re-shuffles its matches by the
// stage-2 plan and ships each stage-2 worker's share DIRECTLY to that peer
// as one contribution sub-job — a session of its own, dialed under the plan
// job's tenant: an OPEN naming the transfer token and the sender, one base
// run, EOS, and the receiver's final REPLY once it committed the share (or
// why it refused). The receiving side keeps committed contributions keyed by
// the coordinator-issued 64-bit token. Every sender contributes to every
// receiver exactly once, empty shares included, so a transfer is complete at
// the sender count its stage-2 job's open declared; the parked job then
// probes the contributions where they landed. The intermediate never transits
// the coordinator — it only sees the count vectors riding the stage-1 final
// replies, and checks stage-2 replies against them.

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

// newPeerToken never returns 0: zero marks an unused planTokens slot, whose
// hang-up sweep would then miss the token.
func newPeerToken() uint64 {
	if t := peerTokenBase + peerTokenCtr.Add(1); t != 0 {
		return t
	}
	return peerTokenBase + peerTokenCtr.Add(1)
}

// ---------- sender side ----------

// contribute ships keys, sender's share of transfer token, to the stage-2
// worker at addr as one contribution sub-job under tenant, over a session
// dialed with t, and returns once the receiver replied it committed them.
// ctx ending abandons the dial and the wait. Every error names the peer; a
// transport failure — or a draining receiver's refusal — indicts it
// (peerFaultError), while any other refusal is the receiver's reason, under
// the receiver's code (a quota, a cancelled transfer) where it had one.
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
		if err := writeCtl(bw, frameV3Open, j.id, &open{Kind: kindContrib, WorkerID: sender, Token: token}); err != nil {
			return err
		}
		if err := writeRun(bw, j.id, true, 0, 0, keys); err != nil {
			return err
		}
		return writeV3FrameHeader(bw, frameV3EOS, j.id, 0)
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

// peerJobState accumulates one transfer's contributions. Once the stage-2
// job's open has declared the sender count and that many contributions are
// committed it signals ready, and the job takes the contributions (a count
// probes them in any order).
type peerJobState struct {
	ledger  *ledger // the worker's: each contribution stays charged to its tenant
	mu      sync.Mutex
	contrib map[int]*peerContrib // the job's to take when done && err == nil
	tuples  int64                // across contributions (relation cap)
	senders int                  // 0 until the stage-2 job's open declares it
	err     error
	done    bool
	ready   chan struct{} // closed once complete or failed
}

func newPeerJobState(l *ledger) *peerJobState {
	return &peerJobState{ledger: l, contrib: make(map[int]*peerContrib), ready: make(chan struct{})}
}

// failLocked poisons the state; waiters observe err after ready closes.
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

// checkReadyLocked signals ready once the sender count is declared and that
// many contributions committed (commit admits none past the count).
func (st *peerJobState) checkReadyLocked() {
	if st.done || st.senders == 0 || len(st.contrib) < st.senders {
		return
	}
	st.done = true
	close(st.ready)
}

// commit is the one admission rule for a contribution, in memory
// (deliverLocal) or at a contribution sub-job's EOS: a transfer still open, a
// new sender, below the sender count once declared, within a relation's tuple
// cap across the transfer. Committed, c's chunks and their charge are the
// transfer's. Refused, they stay the caller's, and an open transfer fails —
// and with it the stage-2 job parked on it.
func (w *Worker) commit(token uint64, sender int, c *peerContrib) error {
	st := w.peerState(token)
	if st == nil {
		return fmt.Errorf("transfer table full (%d tokens)", maxPeerStates)
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
	case st.senders > 0 && sender >= st.senders:
		err = fmt.Errorf("contribution from sender %d of a %d-sender transfer", sender, st.senders)
	case st.tuples+int64(c.n) > MaxRelationTuples:
		err = fmt.Errorf("transfer contributions exceed %d tuples at sender %d", MaxRelationTuples, sender)
	default:
		st.tuples += int64(c.n)
		st.contrib[sender] = c
		st.checkReadyLocked()
		return nil
	}
	st.failLocked(err)
	return err
}

// expect declares the transfer's sender count, carried by the stage-2 job's
// open. It refuses a count outside [1, maxPeerSenders] and a second open of
// the same transfer — failing only the opening job — and fails the transfer if
// a sender past the count contributed before the open arrived.
func (st *peerJobState) expect(senders int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case senders < 1 || senders > maxPeerSenders:
		return fmt.Errorf("peer job declares %d senders, want 1 to %d", senders, maxPeerSenders)
	case st.senders != 0:
		return fmt.Errorf("transfer already opened by another job")
	}
	st.senders = senders
	for s := range st.contrib {
		if s >= senders {
			st.failLocked(fmt.Errorf("contribution from sender %d of a %d-sender transfer", s, senders))
		}
	}
	st.checkReadyLocked()
	return nil
}

// maxPeerStates bounds the distinct transfer tokens a worker will track at
// once, so tombstones and declared-but-empty states cannot grow the table
// without end; the keys contributions hold are the ledger's to bound. (The
// worker, like the session protocol, trusts its cluster network — TLS + auth
// is ROADMAP.)
const maxPeerStates = 1 << 12

// peerState returns (creating if needed) the transfer state for token; it
// returns nil when the token table is full of live transfers. A full table
// first evicts finished states (tombstones of cancelled or failed
// transfers, which hold no buffers) so long-lived workers can't wedge on
// accumulated cancellations — the worst an evicted tombstone costs is one
// late straggler contribution re-buffering up to the per-transfer cap.
func (w *Worker) peerState(token uint64) *peerJobState {
	w.peersMu.Lock()
	defer w.peersMu.Unlock()
	st := w.peerStates[token]
	if st == nil {
		if !w.evictFinishedLocked() {
			return nil
		}
		st = newPeerJobState(w.ledger)
		w.peerStates[token] = st
	}
	return st
}

// evictFinishedLocked makes room in the token table (peersMu held): when
// full, it sweeps out FAILED states — the only evictable kind: they hold no
// buffers by invariant (failLocked released them), while a complete state
// still in the table has a stage-2 job about to consume it. Reports whether
// the table has room afterwards.
func (w *Worker) evictFinishedLocked() bool {
	if len(w.peerStates) < maxPeerStates {
		return true
	}
	for tok, old := range w.peerStates {
		old.mu.Lock()
		evict := old.done && old.err != nil
		old.mu.Unlock()
		if evict {
			delete(w.peerStates, tok)
		}
	}
	return len(w.peerStates) < maxPeerStates
}

// dropPeerState discards the transfer state for token. An open state is
// poisoned and RETAINED as a tombstone (creating one if the token was never
// seen): contributions may still be on their way when a cancel arrives, and
// a tombstone makes the receiver refuse them at their EOS instead of
// re-creating fresh state that nothing would ever reap — a poisoned state
// holds no buffers, so a tombstone costs ~100 bytes, bounded by
// maxPeerStates. A state that already COMPLETED (its job was aborted or its
// session died before consuming it) releases its contributions and is
// removed outright — every sender's contribution arrived, so no stragglers
// can revive the token. finishPeerState removes states whose job consumed
// them.
func (w *Worker) dropPeerState(token uint64) {
	w.peersMu.Lock()
	st := w.peerStates[token]
	if st == nil && w.evictFinishedLocked() {
		st = newPeerJobState(w.ledger)
		w.peerStates[token] = st
	}
	w.peersMu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	cancelled := &rejectError{code: codeCancelled, msg: "transfer cancelled"}
	complete := st.done && st.err == nil
	if complete {
		st.releaseLocked()
		st.err = cancelled // a job taking it this late must not join nothing
	} else {
		st.failLocked(cancelled)
	}
	st.mu.Unlock()
	if complete {
		w.finishPeerState(token)
	}
}

// finishPeerState removes the completed state after its job took it.
func (w *Worker) finishPeerState(token uint64) {
	w.peersMu.Lock()
	delete(w.peerStates, token)
	w.peersMu.Unlock()
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
