package netexec

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ewh/internal/bufpool"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/stage"
)

// Session is the persistent-connection transport implementing exec.Runtime:
// Dial opens one connection per worker and handshakes once, then any number
// of numbered jobs multiplex over those connections — the dial cost is
// amortized across the whole session instead of paid per job.
// Jobs stream each relation as soon as its shuffle completes, so socket
// writes overlap the other relation's still-running scatter.
//
// A Session is safe for concurrent RunJob calls: frames of concurrent jobs
// interleave at job granularity on the send side (one job's frames are
// contiguous per connection) and at frame granularity on the reply side.
type Session struct {
	conns []*sessConn

	// The job-number space and counters, shared with every survivor view
	// (Survivors): jobs issued on either multiplex over the same connections
	// without id collisions.
	*sessShared

	// tenant is the id this session names in every connection's prelude —
	// the key workers use for admission queuing and quota accounting. "" is
	// the anonymous tenant.
	tenant string

	// onClose, when set (by Pool), runs once when the session closes so the
	// issuing pool can drop it from its tracking table. Set before the
	// session escapes the dialing goroutine, never mutated after.
	onClose func()
}

// sessShared is what a session shares with its survivor views.
type sessShared struct {
	ids atomic.Uint32
	// relayed counts the matched index pairs workers streamed back through
	// the coordinator, which the peer shuffle drives to zero for multiway
	// intermediates (RelayedPairs).
	relayed atomic.Int64
	// overlapped counts stage-2 peer sub-jobs whose right relation started
	// streaming before stage 1's final replies had landed (OverlappedStage2).
	overlapped atomic.Int64
	// buildOverlapped sums the workers' reply.BuildOverlapped: routed
	// sub-blocks a resident side consumed before its job's EOS
	// (BuildOverlappedChunks).
	buildOverlapped atomic.Int64
}

// Dial connects to the workers and opens a session on each. The returned
// Session serves jobs needing up to len(addrs) workers; Close hangs up.
func Dial(addrs []string) (*Session, error) {
	return DialTenant(context.Background(), "", addrs, Timeouts{})
}

// DialTenant is Dial with explicit deadlines, bounded by ctx and declaring a
// tenant identity. Connection establishment is bounded by t.Dial and every
// in-flight frame transfer by t.IO, so a hung worker fails its jobs instead of
// wedging the whole session (see Timeouts). Cancelling ctx aborts a dial
// blocked in connection establishment (e.g. a full accept backlog, where no
// wall-clock timeout is configured); ctx bounds only session establishment,
// not the jobs that follow. Each session connection names the tenant in its
// prelude, and the workers key admission queuing and resource budgets by it;
// "" is the anonymous tenant. A tenant id longer than maxTenantLen bytes is
// refused before any dial.
func DialTenant(ctx context.Context, tenant string, addrs []string, t Timeouts) (*Session, error) {
	if len(tenant) > maxTenantLen {
		return nil, fmt.Errorf("netexec: tenant id %d bytes long, limit %d", len(tenant), maxTenantLen)
	}
	s := &Session{sessShared: new(sessShared), tenant: tenant}
	for _, addr := range addrs {
		c, err := dialSessConn(ctx, addr, t, s)
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// Tenant reports the id this session declared at dial time ("" when
// anonymous).
func (s *Session) Tenant() string { return s.tenant }

// RelayedPairs reports the total matched index pairs this session's workers
// have streamed back to the coordinator since Dial.
func (s *Session) RelayedPairs() int64 { return s.relayed.Load() }

// OverlappedStage2 reports how many stage-2 peer sub-jobs started streaming
// their right relation while stage 1 was still running — the pipelining the
// stage-overlapped dispatch buys over the old open-after-stage-1 sequence.
func (s *Session) OverlappedStage2() int64 { return s.overlapped.Load() }

// BuildOverlappedChunks reports how many routed sub-blocks this session's
// workers handed a resident side — a base chunk kept for its seal, or a probe
// chunk — before the owning job's EOS had even been decoded: the join-side
// pipelining of the worker's join feed, mirroring OverlappedStage2 for the
// scatter/join boundary.
func (s *Session) BuildOverlappedChunks() int64 { return s.buildOverlapped.Load() }

// StreamsChunks implements exec.ChunkStreamer: a session's count jobs take
// chunked relations, framing each routed sub-block onto the socket the moment
// a mapper emits it instead of waiting out the whole flat scatter. A pairs or
// plan job's relations stay flat: their indices name arrival order.
func (s *Session) StreamsChunks() bool { return true }

// Workers returns the session's worker count.
func (s *Session) Workers() int { return len(s.conns) }

// Addrs returns the dialed worker addresses.
func (s *Session) Addrs() []string {
	out := make([]string, len(s.conns))
	for i, c := range s.conns {
		out[i] = c.addr
	}
	return out
}

// Label implements exec.Runtime.
func (s *Session) Label() string { return "@sess" }

// Close hangs up every worker connection and releases the session's reader
// goroutines. In-flight jobs fail.
func (s *Session) Close() error {
	var first error
	for _, c := range s.conns {
		if err := c.close(); err != nil && first == nil {
			first = err
		}
	}
	if s.onClose != nil {
		s.onClose()
	}
	return first
}

// RunJob implements exec.Runtime: the job fans out to one numbered sub-job
// per worker over the persistent connections. Worker failures are
// aggregated into one error naming each failed worker's address and the
// job number; every per-worker goroutine has returned by then, so a failed
// job leaks nothing.
func (s *Session) RunJob(job *exec.Job, wm []exec.WorkerMetrics) error {
	if job.Workers > len(s.conns) {
		return fmt.Errorf("netexec: job needs %d workers, session has %d", job.Workers, len(s.conns))
	}
	spec, err := join.SpecOf(job.Cond)
	if err != nil {
		return err
	}
	id := s.ids.Add(1)
	return fanOut(job.Workers, func(w int) error {
		return s.conns[w].runPlain(id, w, spec, job, &wm[w])
	})
}

// fanOut runs fn(0) … fn(n-1) concurrently and joins their errors in index
// order; every goroutine has returned by the time it does.
func fanOut(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sessReply is one reply of a sub-job: the worker's REPLY, interim or final,
// or the connection failure that ended the sub-job.
type sessReply struct {
	*reply
	err error
}

// jobHandler routes one sub-job's reply frames. onPairs runs inline in the
// connection's read loop (one sub-job per worker per job, so pair delivery
// is sequential per worker); every other reply queues on replies, which open
// sizes so the reader never blocks on a departed waiter.
type jobHandler struct {
	onPairs func([]exec.PairIdx)
	replies chan sessReply
}

// sessConn is one persistent worker connection: a writer serialized by wmu
// and a reader goroutine demultiplexing reply frames to registered jobs.
type sessConn struct {
	addr     string
	conn     net.Conn
	sess     *Session // owning session (pairs accounting, fault attribution)
	timeouts Timeouts

	// down marks the worker excluded from future attempts: set when a
	// transport fault is classified against this connection, or when a peer
	// reports this worker's address as a failed transfer target.
	down atomic.Bool

	wmu sync.Mutex // held for one locked call: a whole job's send, or one frame group
	bw  *bufio.Writer

	mu      sync.Mutex
	pending map[uint32]*jobHandler
	err     error // sticky: set once the connection is unusable
}

func dialSessConn(ctx context.Context, addr string, t Timeouts, sess *Session) (*sessConn, error) {
	raw, err := dialTCP(ctx, addr, t)
	if err != nil {
		return nil, &WorkerFault{Kind: FaultDial, Worker: -1, Addr: addr, Err: err, retry: true}
	}
	conn := newTimedConn(raw, t.IO)
	c := &sessConn{
		addr:     addr,
		conn:     conn,
		sess:     sess,
		timeouts: t,
		bw:       bufio.NewWriterSize(conn, connBufSize),
		pending:  make(map[uint32]*jobHandler),
	}
	if _, err := conn.Write(prelude(protoVersionSession, sess.tenant)); err != nil {
		_ = conn.Close()
		return nil, &WorkerFault{Kind: FaultHandshake, Worker: -1, Addr: addr, Err: err, retry: true}
	}
	go c.readLoop()
	return c, nil
}

// locked runs write under the connection's write lock and flushes what it
// buffered: every frame a session sends after the prelude leaves through
// here, and one call is one lock hold.
func (c *sessConn) locked(write func(*bufio.Writer) error) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := write(c.bw)
	if ferr := c.bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// failedErr reports the connection's sticky failure, or nil while usable.
func (c *sessConn) failedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *sessConn) close() error {
	c.fail(errors.New("session closed"))
	return c.conn.Close()
}

// fail marks the connection unusable and delivers the failure to every
// pending sub-job exactly once.
func (c *sessConn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint32]*jobHandler)
	c.mu.Unlock()
	for _, h := range pending {
		h.replies <- sessReply{err: err}
	}
}

// handler returns the registered handler for a job id, or nil.
func (c *sessConn) handler(id uint32) *jobHandler {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending[id]
}

// readLoop demultiplexes reply frames by job number until the connection
// dies. Pairs are delivered inline — the loop is the per-worker delivery
// order the runtime contract requires — interim replies queue, and a final
// one terminates its sub-job. An interim reply never takes a queue's last
// slot, which is the final reply's: one that would is a protocol breach (a
// job that awaits none, or a stream sender that stopped collecting), failed
// rather than blocking this loop under it. The loop exits exactly when the
// connection fails or closes, so a Session never leaks its readers.
func (c *sessConn) readLoop() {
	br := bufio.NewReaderSize(c.conn, connBufSize)
	for {
		disarmConn(c.conn)
		typ, id, n, err := readV3FrameHeader(br)
		if err != nil {
			c.fail(fmt.Errorf("connection lost: %w", err))
			return
		}
		armConn(c.conn)
		switch typ {
		case frameV3Pairs:
			pairs, err := readPairsPayload(br, n)
			if err != nil {
				c.fail(fmt.Errorf("pairs frame: %w", err))
				return
			}
			c.sess.relayed.Add(int64(len(pairs)))
			if h := c.handler(id); h != nil && h.onPairs != nil {
				h.onPairs(pairs)
			}
			exec.PairBufs.Put(pairs)
		case frameV3Reply:
			r := new(reply)
			if err := readCtl(br, n, maxControlPayload, r); err != nil {
				c.fail(fmt.Errorf("reply frame: %w", err))
				return
			}
			c.mu.Lock()
			h := c.pending[id]
			if r.Final {
				delete(c.pending, id)
			}
			c.mu.Unlock()
			switch {
			case h == nil: // abandoned job, late reply: dropped
			case !r.Final && len(h.replies) >= cap(h.replies)-1:
				c.fail(fmt.Errorf("job %d interim reply overrun (%d awaited)", id, cap(h.replies)-1))
				return
			default:
				h.replies <- sessReply{reply: r}
			}
		default:
			c.fail(fmt.Errorf("unexpected frame type %d from worker", typ))
			return
		}
	}
}

// subJob is the coordinator's half of one numbered sub-job on one worker
// connection — the counterpart of the worker's openJob → endFrame/dataFrame
// → join goroutine → retire. Every kind (plain, stage-1 plan, stats stage,
// peer-fed, stream) walks the same four steps: open registers the reply
// handler, send puts frames on the wire, await takes the next reply, close
// retires it. One goroutine drives a sub-job at a time; a multi-phase kind
// hands it from phase to phase.
type subJob struct {
	c      *sessConn
	op     string // names the kind in fault text: "job", "stage job", ...
	id     uint32
	worker int
	h      *jobHandler

	// over is set once the worker holds nothing more for this sub-job that a
	// frame could release: it replied its final reply, a failed send aborted
	// it, or the connection is gone. close aborts anything else.
	over bool
}

// open registers job id's reply handler on this connection: onPairs, and a
// reply queue with room for interim replies ahead of the final one.
// A connection already dead fails fast.
func (c *sessConn) open(op string, id uint32, worker, interim int, onPairs func([]exec.PairIdx)) (*subJob, error) {
	h := &jobHandler{onPairs: onPairs, replies: make(chan sessReply, interim+1)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.connFault(op, id, worker, c.err)
	}
	c.pending[id] = h
	return &subJob{c: c, op: op, id: id, worker: worker, h: h}, nil
}

// send runs write under ONE hold of the connection's write lock and flushes,
// so whatever write frames is contiguous on the wire. A failure — the socket,
// or a validation error write surfaced at a frame boundary, framing intact —
// aborts the sub-job within the same hold: the worker discards its partial
// state before any later job's open can queue behind it, which its
// read-loop-blocking admission relies on. (If the socket failed, the abort
// fails too and the read loop retires everything into the buffered done.)
func (j *subJob) send(write func(*bufio.Writer) error) error {
	err := j.c.locked(func(bw *bufio.Writer) error {
		err := write(bw)
		if err != nil {
			j.over = true
			_ = writeV3FrameHeader(bw, frameV3Abort, j.id, 0)
		}
		return err
	})
	if err != nil {
		return j.c.connFault(j.op, j.id, j.worker, err)
	}
	return nil
}

// await blocks until the sub-job's next reply and triages it: a connection
// failure and an error reply become the classified fault. interim asks for
// the replies that precede the final one (a plan job's summary, a stream's
// windows); without it they are skipped. The wait is bounded by the
// session's per-job liveness deadline when one is configured: a worker that
// produces neither what is awaited nor a connection error within Timeouts.Job
// is declared dead — the failure the IO deadline cannot catch, a worker that
// accepted the job and went silent without the TCP peer dying (the
// coordinator is idle at a frame boundary, so no read deadline is armed).
func (j *subJob) await(what string, interim bool) (sessReply, error) {
	var deadline <-chan time.Time
	if d := j.c.timeouts.Job; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		deadline = t.C
	}
	for {
		select {
		case r := <-j.h.replies:
			switch {
			case r.err != nil:
				j.over = true
				return sessReply{}, j.c.connFault(j.op, j.id, j.worker, r.err)
			case !r.Final && !interim:
				continue
			}
			// Only a final reply ends the sub-job: a poisoned stream answers
			// every window with its error and stays open on the worker until
			// close.
			j.over = j.over || r.Final
			if r.Err != "" {
				return sessReply{}, j.c.workerFault(j.op, j.id, j.worker, r.reply)
			}
			return r, nil
		case <-deadline:
			j.over = true
			return sessReply{}, j.c.livenessFault(j.op, j.id, j.worker,
				fmt.Errorf("no %s within liveness deadline %v", what, j.c.timeouts.Job))
		}
	}
}

// close retires the sub-job: its replies stop routing, and one that never
// reached a terminal reply on a connection still healthy is aborted, so the
// worker retires its half too, before its EOS or past it — partial
// relations, a plan job parked on its PLAN2 or contributing, a peer-fed job
// parked on its transfer, a poisoned stream's goroutine. Safe to call again.
func (j *subJob) close() {
	j.c.mu.Lock()
	delete(j.c.pending, j.id)
	dead := j.c.err != nil
	j.c.mu.Unlock()
	if !j.over && !dead {
		j.over = true
		_ = j.c.locked(func(bw *bufio.Writer) error {
			return writeV3FrameHeader(bw, frameV3Abort, j.id, 0)
		})
	}
}

// proto wraps a coordinator-side validation failure of this sub-job.
func (j *subJob) proto(err error) error {
	return j.c.protoFault(j.op, j.id, j.worker, err)
}

// runPlain executes one count or pairs sub-job start to finish: send the
// job's frames, then consume replies until the worker's final reply (pairs
// arrive via the read loop). Every failure is classified into a
// *WorkerFault naming the worker address and job number.
func (c *sessConn) runPlain(id uint32, workerID int, spec join.Spec, job *exec.Job, m *exec.WorkerMetrics) error {
	var onPairs func([]exec.PairIdx)
	o := open{Kind: kindCount, WorkerID: workerID, Cond: spec}
	if job.Pairs != nil {
		o.Kind = kindPairs
		onPairs = func(pairs []exec.PairIdx) { job.Pairs(workerID, pairs) }
	}
	j, err := c.open("job", id, workerID, 0, onPairs)
	if err != nil {
		return err
	}
	defer j.close()
	if err := j.sendJob(&o, job); err != nil {
		return err
	}
	_, err = j.finish(m, job.Stages)
	return err
}

// finish awaits the final reply of a sub-job whose relations this side
// streamed, validates it and fills m and the worker's entry of recs. A reply
// naming a peer fault address is attributed to that PEER (see workerFault).
func (j *subJob) finish(m *exec.WorkerMetrics, recs []stage.Record) ([]int64, error) {
	r, err := j.await("reply", false)
	if err != nil {
		return nil, err
	}
	j.account(r.reply, m, recs)
	return r.PeerCounts, nil
}

// account folds one successful final reply into the session's tallies, m
// and the worker's entry of recs (nil when the job asked for no records).
func (j *subJob) account(rm *reply, m *exec.WorkerMetrics, recs []stage.Record) {
	j.c.sess.buildOverlapped.Add(rm.BuildOverlapped)
	m.InputR1 = rm.InputR1
	m.InputR2 = rm.InputR2
	m.Output = rm.Output
	if recs != nil {
		recs[j.worker] = rm.Stages
	}
}

// sendJob streams one count, pairs or plan sub-job's frames — its open o,
// relations and EOS — in a single send, so they are contiguous on the wire;
// each relation is fetched from its future right before sending, which is
// where the shuffle/socket overlap happens — relation 1's frames go out (and
// flush, so the worker seals it) while relation 2 may still be scattering.
func (j *subJob) sendJob(o *open, job *exec.Job) error {
	arrival := kinds[o.Kind].ordered
	return j.send(func(bw *bufio.Writer) error {
		if err := writeCtl(bw, frameV3Open, j.id, o); err != nil {
			return err
		}
		if err := j.writeRelation(bw, 1, job.R1.Wait(), arrival); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := j.writeRelation(bw, 2, job.R2.Wait(), arrival); err != nil {
			return err
		}
		return writeV3FrameHeader(bw, frameV3EOS, j.id, 0)
	})
}

// writeRelation streams one relation inside the caller's send: relation 1 as
// the epoch-0 base, relation 2 as window 0 and its re-key column, when it has
// one, as window 1. A chunk stream's sub-blocks frame out as mappers emit
// them; a flat relation ships whole. A pairs or plan job (arrival) refuses a
// chunk stream unsent: its indices name the order its keys arrive in.
func (j *subJob) writeRelation(bw *bufio.Writer, rel int8, rd exec.RelData, arrival bool) error {
	if rd.Chunks != nil {
		if arrival {
			return fmt.Errorf("relation %d: a pairs or plan job's relations ship flat, in arrival order", rel)
		}
		inline := func(write func(*bufio.Writer) error) error { return write(bw) }
		return j.sendChunks(inline, rel, rd.Chunks, rel == 1)
	}
	keys := rd.Keys.Worker(j.worker)
	if len(keys) > MaxRelationTuples {
		return fmt.Errorf("relation %d holds %d tuples, wire limit %d", rel, len(keys), MaxRelationTuples)
	}
	var rekey []join.Key
	if rd.Rekey != nil {
		if rekey = rd.Rekey.Worker(j.worker); len(rekey) != len(keys) {
			return fmt.Errorf("relation %d's re-key column holds %d keys for %d tuples", rel, len(rekey), len(keys))
		}
	}
	if err := writeRun(bw, j.id, rel == 1, 0, 0, keys); err != nil || rd.Rekey == nil {
		return err
	}
	return writeRun(bw, j.id, false, 1, 0, rekey)
}

// sendChunks pipelines one chunk-streamed relation as the base (the
// resident side) or the window of epoch 0: every routed sub-block framed the
// moment the shuffle emits it, then the end frame with the exact total. frame
// is how each of those reaches the wire: inline inside a whole-job send's
// single lock hold, where the connection's buffer leaves whenever it fills —
// a relation larger than it streams out while later mappers still route, a
// small one leaves whole at sendJob's flush — or, for a peer-fed job's right
// relation, which shares its connection with a running stage 1, one flushed
// send per frame group, so the stream never monopolizes the connection.
// Every return path leaves this worker's channel drained, so a failed sub-job
// never wedges the producer's buffers (the stream's other consumers are
// independent; the driver's releaseRelData backstops relations never
// reached).
func (j *subJob) sendChunks(frame func(func(*bufio.Writer) error) error, rel int8,
	cs *exec.ChunkStream, base bool) error {

	defer func() {
		for ch := range cs.Worker(j.worker) {
			bufpool.Keys.Put(ch.Keys)
		}
	}()
	total := 0
	for ch := range cs.Worker(j.worker) {
		err := frame(func(bw *bufio.Writer) error {
			if overRelationCap(total, len(ch.Keys)) {
				return fmt.Errorf("relation %d holds over %d tuples, wire limit %d",
					rel, total, MaxRelationTuples)
			}
			if base {
				return writeStreamBaseKeys(bw, j.id, 0, ch.Keys)
			}
			return writeStreamWinKeys(bw, j.id, 0, 0, ch.Keys)
		})
		total += len(ch.Keys)
		bufpool.Keys.Put(ch.Keys)
		if err != nil {
			return err
		}
	}
	return frame(func(bw *bufio.Writer) error {
		if base {
			return writeStreamBaseEnd(bw, j.id, 0, total)
		}
		return writeStreamWinEnd(bw, j.id, 0, 0, total)
	})
}
