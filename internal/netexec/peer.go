package netexec

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"ewh/internal/bufpool"
	"ewh/internal/join"
)

// This file is the worker→worker peer mesh of the stage-aware pipeline: a
// stage-1 worker that executed a plan job re-shuffles its matches by the
// stage-2 plan and streams each stage-2 worker's share DIRECTLY to that
// peer, over a lazily-dialed persistent connection to the peer's regular
// listener (protoVersionPeer selects this handler). The receiving side
// buffers contributions keyed by a coordinator-issued 64-bit token. Every
// sender contributes to every receiver exactly once, empty shares included, so
// a transfer is complete at the sender count its stage-2 job's open declared;
// the parked job then probes the contributions where they landed. The
// intermediate never transits the coordinator — it only sees the count
// vectors riding the stage-1 metrics, and checks stage-2 replies against them.

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

// peerConn is one outbound peer-mesh connection, dialed lazily on first use
// and kept open for the worker's lifetime. mu serializes whole contributions
// so one sender's frames for one transfer are contiguous on the wire; err is
// sticky — a dead peer fails fast on every later send.
type peerConn struct {
	addr string

	mu     sync.Mutex
	conn   net.Conn
	bw     *bufio.Writer
	err    error
	dialed bool
}

// peerFor returns the (possibly not yet dialed) mesh connection to addr.
func (w *Worker) peerFor(addr string) *peerConn {
	w.peersMu.Lock()
	defer w.peersMu.Unlock()
	pc := w.peers[addr]
	if pc == nil {
		pc = &peerConn{addr: addr}
		w.peers[addr] = pc
	}
	return pc
}

// sendToPeer streams one contribution to addr, and on failure retires the
// dead connection from the mesh so the NEXT plan job redials a fresh one —
// the current job still fails (its contribution may be half-sent), but a
// transiently unreachable peer doesn't poison the link forever.
func (w *Worker) sendToPeer(addr string, token uint64, sender int, keys []join.Key) error {
	pc := w.peerFor(addr)
	err := pc.sendContribution(w.timeouts, token, sender, keys)
	if err != nil {
		w.peersMu.Lock()
		if w.peers[addr] == pc {
			delete(w.peers, addr)
		}
		w.peersMu.Unlock()
	}
	return err
}

// sendContribution streams one transfer contribution (head + key blocks) to
// the peer, dialing on first use. Errors name the peer address.
func (pc *peerConn) sendContribution(t Timeouts, token uint64, sender int, keys []join.Key) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err != nil {
		return fmt.Errorf("peer %s: %w", pc.addr, pc.err)
	}
	if !pc.dialed {
		conn, err := dialTCP(context.Background(), pc.addr, t)
		if err != nil {
			pc.err = err
			return fmt.Errorf("peer %s: %w", pc.addr, err)
		}
		pc.dialed = true
		pc.conn = newTimedConn(conn, t.IO)
		pc.bw = bufio.NewWriterSize(pc.conn, connBufSize)
		if _, err := pc.bw.Write(prelude(protoVersionPeer, "")); err != nil {
			pc.fail(err)
			return fmt.Errorf("peer %s: %w", pc.addr, err)
		}
	}
	if err := pc.writeContribution(token, sender, keys); err != nil {
		pc.fail(err)
		return fmt.Errorf("peer %s: %w", pc.addr, err)
	}
	return nil
}

// fail marks the connection dead (mu held).
func (pc *peerConn) fail(err error) {
	if pc.err == nil {
		pc.err = err
	}
	if pc.conn != nil {
		_ = pc.conn.Close()
	}
}

func (pc *peerConn) close() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.fail(fmt.Errorf("worker closed"))
}

// writeContribution frames one sender's share of a transfer: the head
// declares the key count, then the key blocks follow, split at maxBlockKeys —
// an empty share is its head alone.
func (pc *peerConn) writeContribution(token uint64, sender int, keys []join.Key) error {
	if err := writeV3FrameHeader(pc.bw, framePeerHead, 0, peerHeadLen); err != nil {
		return err
	}
	var h [peerHeadLen]byte
	binary.LittleEndian.PutUint64(h[:], token)
	binary.LittleEndian.PutUint32(h[8:], uint32(sender))
	binary.LittleEndian.PutUint32(h[12:], uint32(len(keys)))
	if _, err := pc.bw.Write(h[:]); err != nil {
		return err
	}
	// The block sub-header repeats the head's layout with the frame's own
	// count in the last slot, which writeKeyFrames fills.
	if err := writeKeyFrames(pc.bw, framePeerBlock, 0, h[:], keys); err != nil {
		return err
	}
	return pc.bw.Flush()
}

// ---------- receiver side ----------

// peerContrib is one sender's (possibly still streaming) share of a
// transfer. Each block is admitted under the state lock within the head's
// declared count (pos counts the admitted keys) and charged to the worker's
// ledger, then decodes into its own pooled chunk outside the lock, which it
// joins under the lock: chunks holds the n keys that joined.
type peerContrib struct {
	declared int
	pos      int
	chunks   [][]join.Key
	n        int
}

// peerJobState accumulates one transfer's contributions. Once the stage-2
// job's open has declared the sender count and that many contributions are
// complete it signals ready, and the job takes the contributions (a count
// probes them in any order).
type peerJobState struct {
	ledger   *ledger // the worker's: contribution buffers are charged to its mesh account
	mu       sync.Mutex
	contrib  map[int]*peerContrib // complete and the job's to take when done && err == nil
	declared int64                // sum of contribution declarations (relation cap)
	senders  int                  // 0 until the stage-2 job's open declares it
	err      error
	done     bool
	ready    chan struct{} // closed once complete or failed
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

func (st *peerJobState) fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.failLocked(err)
}

// releaseLocked recycles every chunk that joined a contribution; a block
// still decoding recycles its own when it finds the state done (joinLocked).
func (st *peerJobState) releaseLocked() {
	for s, c := range st.contrib {
		for _, keys := range c.chunks {
			st.recycle(keys)
		}
		delete(st.contrib, s)
	}
}

// recycle pools one chunk and credits its charge.
func (st *peerJobState) recycle(keys []join.Key) {
	st.ledger.creditMesh(8 * int64(len(keys)))
	bufpool.Keys.Put(keys)
}

// admitLocked admits count more keys to c, charged to the worker's ledger,
// or fails the transfer.
func (st *peerJobState) admitLocked(c *peerContrib, count int) error {
	if err := st.ledger.chargeMesh(8 * int64(count)); err != nil {
		st.failLocked(err)
		return err
	}
	c.pos += count
	return nil
}

// joinLocked adds an admitted block's decoded chunk to c, or recycles it
// when the transfer failed while it decoded.
func (st *peerJobState) joinLocked(c *peerContrib, keys []join.Key) {
	if st.done {
		st.recycle(keys)
		return
	}
	c.chunks = append(c.chunks, keys)
	c.n += len(keys)
	st.checkReadyLocked()
}

// checkReadyLocked signals ready once the sender count is declared and that
// many contributions (addLocked admits none past the count) fully arrived.
func (st *peerJobState) checkReadyLocked() {
	if st.done || st.senders == 0 || len(st.contrib) < st.senders {
		return
	}
	for _, c := range st.contrib {
		if c.n != c.declared {
			return // still streaming
		}
	}
	st.done = true
	close(st.ready)
}

// addLocked is the one admission rule for a contribution, in memory
// (deliverLocal) or over the mesh (handlePeer's head): a new sender, below the
// sender count once declared, within a relation's tuple cap across the
// transfer. It returns the new contribution, which holds no buffer yet, or
// nil when it refused and thereby failed the transfer.
func (st *peerJobState) addLocked(sender int, count int64) *peerContrib {
	switch {
	case st.contrib[sender] != nil:
		st.failLocked(fmt.Errorf("duplicate contribution from sender %d", sender))
	case st.senders > 0 && sender >= st.senders:
		st.failLocked(fmt.Errorf("contribution from sender %d of a %d-sender transfer", sender, st.senders))
	case st.declared+count > MaxRelationTuples:
		st.failLocked(fmt.Errorf("transfer declarations exceed %d tuples at sender %d", MaxRelationTuples, sender))
	default:
		st.declared += count
		c := &peerContrib{declared: int(count)}
		st.contrib[sender] = c
		return c
	}
	return nil
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
// without end; the keys contributions buffer are the ledger's to bound. (The
// mesh, like the session protocol, trusts its cluster network — TLS + auth is
// ROADMAP.)
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

// dropPeerState discards the transfer state for token. An in-flight state
// is poisoned and RETAINED as a tombstone (creating one if the token was
// never seen): contributions may still be streaming in when a cancel
// arrives, and a tombstone makes their frames swallow without buffering
// instead of re-creating fresh state that nothing would ever reap — a
// poisoned state holds no buffers, so a tombstone costs ~100 bytes, bounded
// by maxPeerStates. A state that already COMPLETED (its job was aborted or
// its session died before consuming it) releases its contributions and is
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
	cancelled := fmt.Errorf("transfer cancelled")
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
// sending stage-1 job and the receiving stage-2 worker moves the block in
// memory. The keys are copied — the caller's shuffle buffer is recycled.
func (w *Worker) deliverLocal(token uint64, sender int, keys []join.Key) error {
	st := w.peerState(token)
	if st == nil {
		return fmt.Errorf("transfer table full (%d tokens)", maxPeerStates)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done {
		return st.err
	}
	c := st.addLocked(sender, int64(len(keys)))
	if c == nil || st.admitLocked(c, len(keys)) != nil {
		return st.err
	}
	st.joinLocked(c, append(bufpool.Keys.Get(len(keys))[:0], keys...))
	return nil
}

// handlePeer serves one inbound peer-mesh connection until the sender hangs
// up. Frame-level corruption is connection-fatal; a connection dying with
// contributions still streaming fails their transfers (and thereby the
// stage-2 jobs parked on them) with an error naming the sender address.
func (w *Worker) handlePeer(br *bufio.Reader, conn net.Conn) {
	type inflightKey struct {
		token  uint64
		sender int
	}
	inflight := make(map[inflightKey]*peerJobState)
	defer func() {
		for k, st := range inflight {
			st.fail(fmt.Errorf("peer connection from %s died mid-transfer (sender %d)", conn.RemoteAddr(), k.sender))
		}
	}()

	fatal := func(err error) {
		for k, st := range inflight {
			st.fail(fmt.Errorf("peer transfer from %s (sender %d): %v", conn.RemoteAddr(), k.sender, err))
		}
		inflight = nil
	}

	for {
		typ, _, n, err := readV3FrameHeader(br)
		if err != nil {
			return
		}
		armConn(conn)
		switch typ {
		case framePeerHead:
			if n != peerHeadLen {
				fatal(fmt.Errorf("head frame length %d", n))
				return
			}
			var h [peerHeadLen]byte
			if _, err := io.ReadFull(br, h[:]); err != nil {
				return
			}
			token := binary.LittleEndian.Uint64(h[:])
			sender := int(binary.LittleEndian.Uint32(h[8:]))
			count := int64(binary.LittleEndian.Uint32(h[12:]))
			if sender >= maxPeerSenders || count > MaxRelationTuples {
				fatal(fmt.Errorf("head declares sender %d count %d", sender, count))
				return
			}
			st := w.peerState(token)
			if st == nil {
				fatal(fmt.Errorf("transfer table full (%d tokens)", maxPeerStates))
				return
			}
			st.mu.Lock()
			// A poisoned or cancelled transfer swallows the contribution's
			// frames (they carry their own counts) without buffering.
			if !st.done && st.addLocked(sender, count) != nil {
				if count > 0 {
					inflight[inflightKey{token, sender}] = st
				} else {
					st.checkReadyLocked() // an empty share is complete at its head
				}
			}
			st.mu.Unlock()

		case framePeerBlock:
			var h [peerBlockHeaderLen]byte
			count, err := readKeySubHdr(br, framePeerBlock, n, h[:])
			pe, refused := err.(*protoErr)
			if err != nil && !refused {
				fatal(err)
				return
			}
			token := binary.LittleEndian.Uint64(h[:])
			sender := int(binary.LittleEndian.Uint32(h[8:]))
			st := w.peerState(token)
			if st == nil {
				fatal(fmt.Errorf("block for untracked transfer (table full)"))
				return
			}
			st.mu.Lock()
			c := st.contrib[sender]
			admitted := false
			switch {
			case refused:
				// The decoder consumed the frame: only this transfer fails.
				st.failLocked(fmt.Errorf("sender %d via %s: %v", sender, conn.RemoteAddr(), pe))
				count = 0
			case st.done || c == nil:
				// Swallowing a poisoned transfer's frames keeps the stream in
				// sync (c == nil after done released the contribution).
			case c.pos+count > c.declared:
				st.failLocked(fmt.Errorf("sender %d via %s overflows declared %d tuples", sender, conn.RemoteAddr(), c.declared))
			default:
				admitted = st.admitLocked(c, count) == nil
			}
			st.mu.Unlock()
			if !admitted {
				delete(inflight, inflightKey{token, sender})
				if _, err := io.CopyN(io.Discard, br, int64(8*count)); err != nil {
					return
				}
				break
			}
			// The block decodes outside st.mu, into its own chunk: blocks of
			// one contribution may decode side by side on several connections.
			keys := bufpool.Keys.Get(count)
			readErr := readKeysLE(br, keys)
			st.mu.Lock()
			if readErr != nil {
				// The admitted keys never arrive: the transfer cannot complete.
				st.failLocked(fmt.Errorf("peer connection from %s died mid-block (sender %d)", conn.RemoteAddr(), sender))
			}
			st.joinLocked(c, keys)
			if st.done || c.n == c.declared {
				delete(inflight, inflightKey{token, sender})
			}
			st.mu.Unlock()
			if readErr != nil {
				return
			}

		default:
			fatal(fmt.Errorf("unknown peer frame type %d", typ))
			return
		}
		disarmConn(conn)
	}
}
