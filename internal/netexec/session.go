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
	"time"

	"ewh/internal/exec"
	"ewh/internal/join"
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

	// ids and relayed are pointers so a derived survivor view (Survivors)
	// shares the parent's job-number space and pairs accounting: jobs issued
	// on either multiplex over the same connections without id collisions.
	ids *atomic.Uint32

	// relayed counts the matched index pairs workers streamed back through
	// this coordinator — the quantity the peer-shuffle path drives to zero
	// for multiway intermediates. Exposed for the crosscheck's
	// nothing-transits-the-coordinator assertion and the experiment tables.
	relayed *atomic.Int64

	// overlapped counts stage-2 peer sub-jobs whose right relation started
	// streaming BEFORE stage 1's metrics had landed — the observable the
	// stage-overlapped dispatch crosschecks assert on. Shared by survivor
	// views like ids/relayed.
	overlapped *atomic.Int64

	// buildOverlapped accumulates the workers' metrics.BuildOverlapped: the
	// CHUNK sub-blocks hash-engine jobs consumed before their EOS frames —
	// build/probe work that overlapped the streaming scatter. Shared by
	// survivor views like ids/relayed.
	buildOverlapped *atomic.Int64

	// engineUses tallies successful worker replies by the resolved local-join
	// engine they echoed (index = the wire engine value; 0 collects legacy
	// workers that report nothing). The audit that per-job engine selection —
	// including the peer-open hint — actually reached the workers. Shared by
	// survivor views like ids/relayed.
	engineUses *[3]atomic.Int64

	// tenant is the id this session declared in its HELLO frames — the key
	// workers use for admission queuing and quota accounting. "" (no hello
	// sent) is the anonymous tenant.
	tenant string

	// onClose, when set (by Pool), runs once when the session closes so the
	// issuing pool can drop it from its tracking table. Set before the
	// session escapes the dialing goroutine, never mutated after.
	onClose func()
}

// Dial connects to the workers and opens a session on each. The returned
// Session serves jobs needing up to len(addrs) workers; Close hangs up.
func Dial(addrs []string) (*Session, error) {
	return DialContextWith(context.Background(), addrs, Timeouts{})
}

// DialWith is Dial with explicit dial/IO deadlines: connection establishment
// is bounded by t.Dial and every in-flight frame transfer by t.IO, so a hung
// worker fails its jobs instead of wedging the whole session (see Timeouts).
func DialWith(addrs []string, t Timeouts) (*Session, error) {
	return DialContextWith(context.Background(), addrs, t)
}

// DialContext is Dial bounded by ctx: cancelling the context aborts a dial
// blocked in connection establishment (e.g. a full accept backlog, where no
// wall-clock timeout is configured) instead of leaving the caller stuck in
// the kernel handshake.
func DialContext(ctx context.Context, addrs []string) (*Session, error) {
	return DialContextWith(ctx, addrs, Timeouts{})
}

// DialContextWith combines DialContext and DialWith. The context bounds only
// session establishment, not the jobs that follow.
func DialContextWith(ctx context.Context, addrs []string, t Timeouts) (*Session, error) {
	return DialTenant(ctx, "", addrs, t)
}

// DialTenant is DialContextWith declaring a tenant identity: each session
// connection sends a HELLO frame naming the tenant right after the protocol
// prelude, and the workers key admission queuing and resource budgets by it.
// An empty tenant sends no hello (the anonymous tenant — byte-identical to
// the pre-multi-tenant wire).
func DialTenant(ctx context.Context, tenant string, addrs []string, t Timeouts) (*Session, error) {
	if len(tenant) > maxTenantLen {
		return nil, fmt.Errorf("netexec: tenant id %d bytes long, limit %d", len(tenant), maxTenantLen)
	}
	s := &Session{ids: new(atomic.Uint32), relayed: new(atomic.Int64),
		overlapped: new(atomic.Int64), buildOverlapped: new(atomic.Int64),
		engineUses: new([3]atomic.Int64), tenant: tenant}
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

// BuildOverlappedChunks reports how many CHUNK sub-blocks this session's
// workers fed into their incremental hash builds (or probed) before the
// owning job's EOS had even been decoded — the join-side pipelining the
// insert-while-probe engine buys over join-after-assembly, mirroring
// OverlappedStage2 for the scatter/join boundary.
func (s *Session) BuildOverlappedChunks() int64 { return s.buildOverlapped.Load() }

// EngineUses reports how many successful sub-job replies resolved to engine
// e on the worker side since Dial — including peer-fed stage-2 jobs, whose
// selection travels in the peer open's engine hint. EngineUses(EngineAuto)
// counts legacy workers that echo no engine.
func (s *Session) EngineUses(e exec.JoinEngine) int64 {
	if e < 0 || int(e) >= len(s.engineUses) {
		return 0
	}
	return s.engineUses[e].Load()
}

// noteEngine tallies one successful reply's echoed engine, ignoring values
// outside the known range (a newer worker's engine family).
func (s *Session) noteEngine(e int) {
	if e >= 0 && e < len(s.engineUses) {
		s.engineUses[e].Add(1)
	}
}

// StreamsChunks implements exec.ChunkStreamer: the session consumes chunked
// relations, framing each routed sub-block onto the socket the moment a
// mapper emits it instead of waiting out the whole flat scatter.
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
	errs := make([]error, job.Workers)
	var wg sync.WaitGroup
	for w := 0; w < job.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = s.conns[w].runJob(id, w, spec, job, &wm[w])
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sessReply is the terminal state of one sub-job: the worker's metrics or
// the connection failure that ended it.
type sessReply struct {
	m   *metrics
	err error
}

// jobHandler routes one sub-job's reply frames. onPairs runs inline in the
// connection's read loop (one sub-job per worker per job, so pair delivery
// is sequential per worker); done and stats are buffered so the reader
// never blocks on a departed waiter (stats carries at most one summary per
// stage job).
type jobHandler struct {
	onPairs func([]exec.PairIdx)
	stats   chan []byte
	done    chan sessReply
	// onStream delivers a stream job's per-window replies (frameV3StreamRep);
	// like onPairs it runs inline in the read loop.
	onStream func(streamWinReply)
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

	wmu sync.Mutex // serializes whole-job sends
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
	var prelude [len(protoMagic) + 2]byte
	copy(prelude[:], protoMagic[:])
	binary.LittleEndian.PutUint16(prelude[len(protoMagic):], protoVersionSession)
	if _, err := conn.Write(prelude[:]); err != nil {
		_ = conn.Close()
		return nil, &WorkerFault{Kind: FaultHandshake, Worker: -1, Addr: addr, Err: err, retry: true}
	}
	if sess != nil && sess.tenant != "" {
		// Declare tenancy before any job. The hello rides the shared buffered
		// writer and flushes immediately — the worker must know the tenant
		// before it sees the first job open.
		err := writeV3GobFrame(c.bw, frameV3Hello, 0, sessionHello{Tenant: sess.tenant})
		if err == nil {
			err = c.bw.Flush()
		}
		if err != nil {
			_ = conn.Close()
			return nil, &WorkerFault{Kind: FaultHandshake, Worker: -1, Addr: addr, Err: err, retry: true}
		}
	}
	go c.readLoop()
	return c, nil
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
		h.done <- sessReply{err: err}
	}
}

// register installs a sub-job's handler; it fails fast on a dead
// connection.
func (c *sessConn) register(id uint32, h *jobHandler) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	c.pending[id] = h
	return nil
}

func (c *sessConn) deregister(id uint32) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// handler returns the registered handler for a job id, or nil.
func (c *sessConn) handler(id uint32) *jobHandler {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending[id]
}

// readLoop demultiplexes reply frames by job number until the connection
// dies. Pairs are delivered inline — the loop is the per-worker delivery
// order the runtime contract requires — and a metrics frame terminates its
// sub-job. The loop exits exactly when the connection fails or closes, so
// a Session never leaks its readers.
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
			putPairsBuf(pairs)
		case frameV3Stats:
			h := c.handler(id)
			if h == nil || h.stats == nil {
				// No consumer (abandoned job, late duplicate): drain without
				// buffering.
				if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
					c.fail(fmt.Errorf("stats frame: %w", err))
					return
				}
				continue
			}
			payload := make([]byte, n)
			if _, err := io.ReadFull(br, payload); err != nil {
				c.fail(fmt.Errorf("stats frame: %w", err))
				return
			}
			select {
			case h.stats <- payload:
			default: // a second summary for one job is dropped, not fatal
			}
		case frameV3StreamRep:
			var r streamWinReply
			if err := readGobPayload(br, n, &r); err != nil {
				c.fail(fmt.Errorf("stream reply frame: %w", err))
				return
			}
			if h := c.handler(id); h != nil && h.onStream != nil {
				h.onStream(r)
			}
		case frameV3Metrics:
			var m metrics
			if err := readGobPayload(br, n, &m); err != nil {
				c.fail(fmt.Errorf("metrics frame: %w", err))
				return
			}
			c.mu.Lock()
			h := c.pending[id]
			delete(c.pending, id)
			c.mu.Unlock()
			if h != nil {
				h.done <- sessReply{m: &m}
			}
		default:
			c.fail(fmt.Errorf("unexpected frame type %d from worker", typ))
			return
		}
	}
}

// awaitReply blocks until the sub-job's terminal reply, bounded by the
// session's per-job liveness deadline when one is configured. A worker that
// produces neither a reply nor a connection error within Timeouts.Job is
// declared dead: the deadline catches failure modes the IO deadline cannot —
// a worker that accepted the job and went silent without the TCP peer dying
// (the coordinator is idle at a frame boundary, so no read deadline is
// armed).
func (c *sessConn) awaitReply(op string, id uint32, workerID int, h *jobHandler) (sessReply, error) {
	if c.timeouts.Job <= 0 {
		return <-h.done, nil
	}
	t := time.NewTimer(c.timeouts.Job)
	defer t.Stop()
	select {
	case r := <-h.done:
		return r, nil
	case <-t.C:
		return sessReply{}, c.livenessFault(op, id, workerID,
			fmt.Errorf("no reply within liveness deadline %v", c.timeouts.Job))
	}
}

// runJob executes one sub-job on this connection: send the job's frames,
// then consume replies until the worker's metrics (pairs arrive via the
// read loop). Every failure is classified into a *WorkerFault naming the
// worker address and job number.
func (c *sessConn) runJob(id uint32, workerID int, spec join.Spec, job *exec.Job,
	m *exec.WorkerMetrics) error {

	const op = "job"
	h := &jobHandler{done: make(chan sessReply, 1)}
	if job.Pairs != nil {
		h.onPairs = func(pairs []exec.PairIdx) { job.Pairs(workerID, pairs) }
	}
	if err := c.register(id, h); err != nil {
		return c.connFault(op, id, workerID, err)
	}
	defer c.deregister(id)
	sentPay, err := c.sendJob(id, workerID, spec, nil, job)
	if err != nil {
		// The reader may deliver the underlying failure too; the buffered
		// done channel absorbs it.
		return c.connFault(op, id, workerID, err)
	}
	r, ferr := c.awaitReply(op, id, workerID, h)
	if ferr != nil {
		return ferr
	}
	if r.err != nil {
		return c.connFault(op, id, workerID, r.err)
	}
	if r.m.Err != "" {
		return c.workerFault(op, id, workerID, r.m)
	}
	// End-to-end payload assertion: the worker reports the payload bytes it
	// decoded; any disagreement with what this side streamed means wire
	// corruption that slipped past the worker's declaration checks.
	if r.m.PayBytes1 != sentPay[0] || r.m.PayBytes2 != sentPay[1] {
		return c.protoFault(op, id, workerID,
			fmt.Errorf("worker decoded %d/%d payload bytes, coordinator sent %d/%d",
				r.m.PayBytes1, r.m.PayBytes2, sentPay[0], sentPay[1]))
	}
	c.sess.buildOverlapped.Add(r.m.BuildOverlapped)
	c.sess.noteEngine(r.m.Engine)
	m.InputR1 = r.m.InputR1
	m.InputR2 = r.m.InputR2
	m.Output = r.m.Output
	return nil
}

// sendJob streams one sub-job's frames. The write lock spans the whole job
// so its frames are contiguous on the wire; each relation is fetched from
// its future right before sending, which is where the shuffle/socket
// overlap happens — relation 1's blocks go out (and flush) while relation
// 2 may still be scattering. A non-nil ps makes this a stage-1 plan job:
// the PLAN frame rides between the open and the relations. A job that
// cannot be completed (a coordinator-side validation failure) is abandoned
// with an abort frame so the worker discards its partial state instead of
// waiting forever for an EOS — validation errors surface at frame
// boundaries, so the connection's framing stays intact for subsequent
// jobs. (If the failure was the socket itself, the abort write fails too
// and the read loop retires everything.)
func (c *sessConn) sendJob(id uint32, workerID int, spec join.Spec, ps *planSpec,
	job *exec.Job) (sentPay [2]int64, err error) {

	c.wmu.Lock()
	defer c.wmu.Unlock()
	abort := func(err error) ([2]int64, error) {
		_ = writeV3FrameHeader(c.bw, frameV3Abort, id, 0)
		_ = c.bw.Flush()
		return [2]int64{}, err
	}
	jo := jobOpen{WorkerID: workerID, Cond: spec, WantPairs: job.Pairs != nil,
		Engine: int(job.Engine)}
	if err := writeV3GobFrame(c.bw, frameV3OpenJob, id, jo); err != nil {
		return abort(err)
	}
	if ps != nil {
		if err := writeV3GobFrame(c.bw, frameV3Plan, id, *ps); err != nil {
			return abort(err)
		}
	}
	pay1, err := c.sendRelation(id, 1, job.R1.Wait(), workerID)
	if err != nil {
		return abort(err)
	}
	if err := c.bw.Flush(); err != nil {
		return abort(err)
	}
	pay2, err := c.sendRelation(id, 2, job.R2.Wait(), workerID)
	if err != nil {
		return abort(err)
	}
	if err := writeV3FrameHeader(c.bw, frameV3EOS, id, 0); err != nil {
		return [2]int64{}, err
	}
	return [2]int64{pay1, pay2}, c.bw.Flush()
}

// sendRelation streams one relation's head, key blocks and (optional)
// payload blocks, returning the payload bytes shipped so runJob can assert
// the worker's decode count against them. Chunk-streamed relations take the
// pipelined path instead: sub-blocks frame out as mappers emit them.
func (c *sessConn) sendRelation(id uint32, rel int8, rd exec.RelData, workerID int) (int64, error) {
	if rd.Chunks != nil {
		return 0, c.sendRelationChunked(id, rel, rd.Chunks, workerID)
	}
	keys := rd.Keys.Worker(workerID)
	if len(keys) > MaxRelationTuples {
		return 0, fmt.Errorf("relation %d holds %d tuples, wire limit %d", rel, len(keys), MaxRelationTuples)
	}
	var pb exec.PayloadBlock
	hasPay := rd.Payloads != nil
	if hasPay {
		pb = rd.Payloads(workerID)
		if len(pb.Flat) > MaxRelationPayloadBytes {
			return 0, fmt.Errorf("relation %d payloads hold %d bytes, wire limit %d",
				rel, len(pb.Flat), MaxRelationPayloadBytes)
		}
		// A single tuple's payload must fit one payload frame: lengths and
		// bytes travel together, so an oversized tuple has no valid wire
		// encoding — catch it here (at a frame boundary, so the job aborts
		// cleanly) rather than emitting a frame the worker must treat as
		// connection-fatal.
		for i := 0; i+1 < len(pb.Off); i++ {
			if sz := pb.Off[i+1] - pb.Off[i]; int(sz) > maxPayFrameBytes {
				return 0, fmt.Errorf("relation %d tuple %d payload is %d bytes, per-tuple wire limit %d",
					rel, i, sz, maxPayFrameBytes)
			}
		}
	}
	if err := writeRelHead(c.bw, id, rel, len(keys), hasPay, len(pb.Flat)); err != nil {
		return 0, err
	}
	if err := writeKeyBlocksV3(c.bw, id, rel, keys); err != nil {
		return 0, err
	}
	if hasPay {
		if err := writePayloadBlocks(c.bw, id, rel, pb); err != nil {
			return 0, err
		}
	}
	return int64(len(pb.Flat)), nil
}

// sendRelationChunked pipelines one chunk-streamed relation: a head naming
// the mapper count, then every routed sub-block the moment the shuffle emits
// it (flushed per chunk so the worker decodes while later mappers still
// route), then a tail with the exact total. Every return path — success or
// failure — leaves this worker's channel drained, so a failed sub-job never
// wedges the producer's buffers (the stream's other consumers are
// independent; the driver's releaseRelData backstops relations never
// reached).
func (c *sessConn) sendRelationChunked(id uint32, rel int8, cs *exec.ChunkStream, workerID int) error {
	drain := func(err error) error {
		for ch := range cs.Worker(workerID) {
			exec.PutKeyBuffer(ch.Keys)
		}
		return err
	}
	if err := writeChunkHead(c.bw, id, rel, cs.Mappers()); err != nil {
		return drain(err)
	}
	total := 0
	for ch := range cs.Worker(workerID) {
		n := len(ch.Keys)
		if total+n > MaxRelationTuples {
			exec.PutKeyBuffer(ch.Keys)
			return drain(fmt.Errorf("relation %d holds over %d tuples, wire limit %d",
				rel, total, MaxRelationTuples))
		}
		err := writeChunkKeys(c.bw, id, rel, ch.Mapper, ch.Keys)
		exec.PutKeyBuffer(ch.Keys)
		if err == nil {
			err = c.bw.Flush()
		}
		if err != nil {
			return drain(err)
		}
		total += n
	}
	return writeChunkTail(c.bw, id, rel, total, 0)
}
