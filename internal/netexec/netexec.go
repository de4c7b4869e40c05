// Package netexec runs the shared-nothing join over real TCP workers: a
// coordinator batch-routes both relations once with the engine's shuffle.
// Every relation crosses the wire as one framing: a run of base or window
// frames ended by its exact total, and the worker decodes each key frame into
// its own pooled chunk for the job's join goroutine. A count job streams each
// relation as per-mapper sub-blocks the moment a mapper has routed its shard,
// and the goroutine inserts or probes them as they arrive; a pairs or plan
// job ships each worker's contiguous block per relation whole (a plan job's
// re-key column as one more window), and the goroutine joins its chunks in
// arrival order at EOS. Either way the worker replies its counts. It is the
// process-distributed counterpart of internal/exec's goroutine engine — same
// partitioning schemes, same shuffle, same metrics — demonstrating that
// nothing in the EWH design depends on shared memory.
//
// There is one transport: the session protocol (Dial/Session, implementing
// exec.Runtime) keeps one persistent connection per worker and multiplexes
// numbered jobs over it, so N jobs cost one dial per worker. Every connection
// opens with the prelude "EWHB" + version + the tenant its jobs are charged
// to; workers speak exactly one version, 10, and close anything else. A
// stage-1 worker re-shuffling its matches speaks it too: each peer's share is
// a contribution sub-job on a session dialed under the plan job's tenant
// (peer.go). One serialization: fixed-layout little-endian, key runs as
// arrays and the three control records (one OPEN naming the job's kind,
// PLAN2, one REPLY) through planio's Cursor (control.go). Both ends run
// one job lifecycle each: the coordinator's subJob
// (open/send/await/close, session.go) against the worker's openJob →
// endFrame/dataFrame → join goroutine → retire (session_worker.go,
// stream_worker.go), each job one sessJob whose goroutine starts once its
// open's refusals and admission are settled. A job ends one way short of its
// final reply: its ABORT, which cancels the job's context at any point of its
// life, or its connection's or worker's context ending under it. Every
// key-carrying data frame has one writer (writeKeyFrames) and one sub-header
// step (readKeySubHdr); one function (sessJob.runRel) decides which relation a
// run's frame advances. See wire.go for the framing and
// DESIGN.md's "Transport" section for the frame table and both lifecycles.
package netexec

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ewh/internal/localjoin"
	"ewh/internal/stage"
)

// MaxRelationTuples bounds the tuples one relation, epoch base, window or
// peer transfer may hold on a worker (1G keys = 8 GiB), well inside the
// join's 32-bit pair indices. It is a sanity bound on declarations, not a
// memory bound: a worker allocates only for key frames that arrived, charged
// to its ledger.
const MaxRelationTuples = 1 << 30

// overRelationCap is the running-count predicate behind that cap wherever
// tuples accumulate frame by frame — one base or window run, a stream's or
// a count job's — on the side that writes them and the side that buffers
// them: add more tuples on top of have would pass MaxRelationTuples.
func overRelationCap(have, add int) bool {
	return int64(have)+int64(add) > MaxRelationTuples
}

// connBufSize sizes the per-connection buffered reader/writer.
const connBufSize = 64 << 10

// preludeTimeout bounds the whole prelude of an accepted connection, whatever
// Timeouts.IO says: both dialers write it as they connect, so a connection
// still short of it this long after acceptance is not one of theirs, and it
// must not hold a goroutine and a socket until Shutdown.
const preludeTimeout = 3 * time.Second

// Worker is a join worker server. Session connections stay open and serve
// numbered jobs until their dialer hangs up: a coordinator's, or a stage-1
// peer's carrying its contribution. Close kills the worker abruptly
// (listener and every live connection); Shutdown drains in-flight jobs
// first.
type Worker struct {
	ln     net.Listener
	closed chan struct{}
	// ctx is every connection's parent, and through them every job's: Close
	// cancels it with stop, ending every job wait at once.
	ctx  context.Context
	stop context.CancelFunc

	timeouts Timeouts // set before Serve; see SetTimeouts

	mu       sync.Mutex
	conns    map[*connState]struct{}
	draining bool           // no new jobs; set by Shutdown AND Close
	jobs     sync.WaitGroup // in-flight jobs across all connections

	// Inbound transfer state keyed by token (see peer.go).
	peersMu    sync.Mutex
	peerStates map[uint64]*peerJobState

	// jobsDone counts every job endJob retired.
	jobsDone atomic.Int64

	// Multi-tenant policy (see tenant.go): admit gates concurrent join
	// execution with weighted-fair queuing (nil: disabled); ledger charges
	// every byte a job or transfer holds, per tenant and in total (ledger.go).
	admit  *admitter
	ledger *ledger

	// buildCache shares count jobs' sealed sides, dense windows and rank
	// tables, between jobs indexing the same relation content — across
	// sessions and tenants, since a sealed side is immutable and
	// content-addressed (see localjoin.BuildCache). Nil disables caching.
	buildCache *localjoin.BuildCache

	// tally is every job kind's replies since start (Snapshot).
	tallyMu sync.Mutex
	tally   [numKinds]JobTally
}

// connState tracks one accepted connection for shutdown: active counts the
// connection's open jobs. session flips once the prelude has arrived — the
// only kind Shutdown may close while idle: a connection whose prelude has not
// arrived yet might be a stage-1 peer's, about to open the contribution an
// in-flight stage-2 job waits for.
type connState struct {
	conn    net.Conn
	active  int  // guarded by Worker.mu
	session bool // guarded by Worker.mu
}

// ListenWorker starts a worker on addr ("127.0.0.1:0" picks a free port).
// Serve must be called to accept jobs.
func ListenWorker(addr string) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netexec: listen %s: %w", addr, err)
	}
	return ListenWorkerOn(ln), nil
}

// ListenWorkerOn starts a worker on an already-bound listener — the seam the
// fault-injection harness uses to interpose a faultnet wrapper between the
// wire and the worker without the worker knowing.
func ListenWorkerOn(ln net.Listener) *Worker {
	ctx, stop := context.WithCancel(context.Background())
	return &Worker{
		ln:         ln,
		closed:     make(chan struct{}),
		ctx:        ctx,
		stop:       stop,
		conns:      make(map[*connState]struct{}),
		peerStates: make(map[uint64]*peerJobState),
		ledger:     newLedger(),
		buildCache: localjoin.NewBuildCache(DefaultBuildCacheBytes),
	}
}

// DefaultBuildCacheBytes is the worker's default build-side cache budget.
// The cache holds count jobs' sealed sides (content-addressed, shared across
// sessions and tenants); its tables live outside the per-tenant byte
// budgets, bounded globally by this cap instead.
const DefaultBuildCacheBytes = 64 << 20

// SetBuildCacheBytes resizes the worker's build-side cache budget; <= 0
// disables caching entirely. Call before Serve.
func (w *Worker) SetBuildCacheBytes(n int64) {
	w.buildCache = localjoin.NewBuildCache(n)
}

// BuildCacheStats is Snapshot().Cache, kept only for the benchmark module
// (ROADMAP item 1's ledger).
func (w *Worker) BuildCacheStats() localjoin.BuildCacheStats { return w.Snapshot().Cache }

// Holdings is what a worker holds for its connections at one instant. A
// worker with nothing in flight holds the zero value; the build cache, which
// outlives its jobs, is not a holding (see Snapshot.Cache).
type Holdings struct {
	Jobs      int   // jobs in flight across connections
	Bytes     int64 // bytes charged to the ledger, every tenant's
	Transfers int   // open inbound transfers
	Running   int   // admission slots taken
	Waiting   int   // jobs queued for an admission slot
}

// Snapshot is a worker's state at one instant: what it holds, and its
// counters since start.
type Snapshot struct {
	Holdings
	Admission AdmissionStats            // zero when admission control is off
	Cache     localjoin.BuildCacheStats // zero when the cache is disabled
	// Jobs is every job kind's tally, keyed by its name in kinds; it shadows
	// Holdings.Jobs, the jobs in flight.
	Jobs map[string]JobTally
}

// JobTally is one job kind's replies since start: how many, how many of them
// final, and the sum of the stage records they carried. Every REPLY a job
// sends counts — a peer open's acknowledgment, a plan job's summary, a
// stream's window replies, each final — so a plan job abandoned past its
// summary adds a reply, not a final.
type JobTally struct {
	Replies, Finals int64
	Stages          stage.Record
}

// Snapshot reads the worker's state, taking each of its locks once. Each
// part is read under its own lock, so a snapshot taken while jobs run need
// not be consistent across parts; one taken at rest is exact.
func (w *Worker) Snapshot() Snapshot {
	var s Snapshot
	w.mu.Lock()
	for cs := range w.conns {
		s.Holdings.Jobs += cs.active
	}
	w.mu.Unlock()
	w.ledger.mu.Lock()
	s.Bytes = w.ledger.held
	w.ledger.mu.Unlock()
	w.peersMu.Lock()
	s.Transfers = len(w.peerStates)
	w.peersMu.Unlock()
	w.admit.snapshot(&s)
	s.Cache = w.buildCache.Stats()
	s.Jobs = make(map[string]JobTally, numKinds)
	w.tallyMu.Lock()
	for k, t := range w.tally {
		s.Jobs[kinds[k].name] = t
	}
	w.tallyMu.Unlock()
	return s
}

// Addr returns the worker's bound address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// SetTimeouts configures the worker's deadlines: IO on every connection it
// serves, and all three on the contribution sessions it dials to its stage-2
// peers. Call before Serve; the zero value disables deadlines.
func (w *Worker) SetTimeouts(t Timeouts) { w.timeouts = t }

// Close stops the worker abruptly: the listener and every live connection
// are closed, killing in-flight jobs (their coordinators see the broken
// connection). A connection accepted concurrently with Close is closed by
// its own handler, which finds the worker's context cancelled, so none
// survives. Use Shutdown for a graceful drain.
func (w *Worker) Close() error {
	err := w.stopAccepting()
	w.mu.Lock()
	w.draining = true
	w.stop() // ends every job wait: admission, transfers, PLAN2, contributions
	for cs := range w.conns {
		_ = cs.conn.Close()
	}
	w.mu.Unlock()
	return err
}

// stopAccepting closes the listener exactly once.
func (w *Worker) stopAccepting() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case <-w.closed:
		return nil
	default:
	}
	close(w.closed)
	return w.ln.Close()
}

// Shutdown stops the worker gracefully: it closes the listener, lets every
// in-flight job finish and reply, then closes the remaining connections
// (idle session connections close immediately — there is no job to drain
// on them). New jobs arriving on live sessions during the drain are
// refused with an error reply. If ctx expires first, the remaining
// connections are closed abruptly and ctx's error is returned.
func (w *Worker) Shutdown(ctx context.Context) error {
	_ = w.stopAccepting()
	w.mu.Lock()
	w.draining = true
	for cs := range w.conns {
		// Only idle sessions close now (see connState). The drain itself
		// also covers this worker's OUTBOUND contributions — a stage-1 plan
		// job replies only once its peers committed them, so jobs.Wait
		// returning means every one landed.
		if cs.active == 0 && cs.session {
			_ = cs.conn.Close()
		}
	}
	w.mu.Unlock()

	done := make(chan struct{})
	go func() {
		w.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		w.mu.Lock()
		for cs := range w.conns {
			_ = cs.conn.Close()
		}
		w.mu.Unlock()
		return ctx.Err()
	}
	// Every job replied; busy connections closed themselves as their last
	// job ended (see endJob), so only post-drain stragglers remain.
	w.mu.Lock()
	for cs := range w.conns {
		_ = cs.conn.Close()
	}
	w.mu.Unlock()
	return nil
}

// beginJob registers an in-flight job on cs. It refuses (returns false)
// when the worker is draining — but for a contribution while a job is still
// in flight here: the stage-2 job the drain waits for may need it.
func (w *Worker) beginJob(cs *connState, contrib bool) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining && !(contrib && w.busyLocked()) {
		return false
	}
	cs.active++
	w.jobs.Add(1)
	return true
}

// busyLocked reports a job in flight on any connection (mu held).
func (w *Worker) busyLocked() bool {
	for cs := range w.conns {
		if cs.active > 0 {
			return true
		}
	}
	return false
}

// endJob retires an in-flight job; the connection closes itself when the
// worker is draining and this was its last job.
func (w *Worker) endJob(cs *connState) {
	w.mu.Lock()
	cs.active--
	closeNow := w.draining && cs.active == 0
	w.mu.Unlock()
	w.jobs.Done()
	w.jobsDone.Add(1)
	if closeNow {
		_ = cs.conn.Close()
	}
}

// Serve accepts and processes jobs until Close or Shutdown. It returns nil
// after either.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			select {
			case <-w.closed:
				return nil
			default:
				return fmt.Errorf("netexec: accept: %w", err)
			}
		}
		go w.handle(conn)
	}
}

// handle reads the connection's prelude and serves the session. Bytes that
// are not the prelude — wrong magic, a version the worker does not speak, a
// hangup before the tenant arrived — close the connection with no reply and
// no job accounting: the magic and version are checked before the tenant is
// read, and nothing past the prelude's bounded reads ever parses untrusted
// input.
// A panic while serving one connection must not take down the worker process
// (and every other in-flight job with it), so it is contained here; the
// coordinator sees the closed connection as a job failure.
func (w *Worker) handle(conn net.Conn) {
	cs := &connState{conn: conn}
	w.mu.Lock()
	// A cancelled context (the Close path) rejects outright — a connection
	// that registers after Close was accepted concurrently, so Close's
	// iteration missed it. A DRAINING worker still serves new connections: job opens
	// are refused politely by beginJob, but a contribution must get through —
	// a sender's in-flight stage-1 job may need to deliver it to this worker
	// for the drain to complete at all.
	if w.ctx.Err() != nil {
		w.mu.Unlock()
		_ = conn.Close()
		return
	}
	w.conns[cs] = struct{}{}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.conns, cs)
		w.mu.Unlock()
	}()

	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "netexec: worker: recovered serving %s: %v\n%s",
				conn.RemoteAddr(), r, debug.Stack())
		}
	}()
	tc := newTimedConn(conn, w.timeouts.IO)
	_ = conn.SetReadDeadline(time.Now().Add(preludeTimeout))
	var head [len(protoMagic) + 2]byte
	if _, err := io.ReadFull(tc, head[:]); err != nil || [4]byte(head[:4]) != protoMagic ||
		binary.LittleEndian.Uint16(head[len(protoMagic):]) != protoVersionSession {
		return
	}
	var tenantLen [1]byte
	if _, err := io.ReadFull(tc, tenantLen[:]); err != nil {
		return
	}
	tenant := make([]byte, tenantLen[0])
	if _, err := io.ReadFull(tc, tenant); err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	w.mu.Lock()
	cs.session = true
	w.mu.Unlock()
	w.handleSession(bufio.NewReaderSize(tc, connBufSize), tc, cs, string(tenant))
}
