package netexec

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"

	"ewh/internal/exec"
)

// This file is the failure-detection half of fault-tolerant execution: every
// per-worker per-job failure a session observes is classified into a typed
// WorkerFault instead of the flat string aggregation the first session
// protocol shipped with. The coordinator-side drivers (exec.RunRetry and the
// multiway retry loops) extract the faults from an aggregated error, decide
// retryability, and rebuild the plan over the session's survivors — see
// Session.Survivors and DESIGN.md's "Fault model & recovery".

// FaultKind classifies what broke between the coordinator and a worker.
type FaultKind uint8

const (
	// FaultUnknown covers coordinator-side validation failures (oversized
	// relations, payload-byte disagreement): deterministic, never retried.
	FaultUnknown FaultKind = iota
	// FaultDial is a failed connection establishment (refused, unreachable,
	// or past Timeouts.Dial).
	FaultDial
	// FaultHandshake is a failed or timed-out protocol prelude write on a
	// fresh connection.
	FaultHandshake
	// FaultTimeout is an expired progress deadline: a mid-frame read/write
	// past Timeouts.IO, or a sub-job exceeding the Timeouts.Job liveness
	// deadline. The connection is poisoned — a wedged worker is excluded,
	// not re-polled.
	FaultTimeout
	// FaultConnLost is an established connection dying under the session:
	// reset by peer, broken pipe, or an unexpected EOF.
	FaultConnLost
	// FaultWorkerJob is an explicit worker-side job error reply. Retryable
	// only when the worker refused the job because it is shutting down.
	FaultWorkerJob
	// FaultPeer is a worker-side failure caused by ANOTHER worker: a
	// contribution to it could not be delivered. Addr names the peer, which
	// the session marks down so recovery excludes the right machine.
	FaultPeer
	// FaultAdmission is a typed worker refusal under admission control: the
	// tenant's queue was full or the job waited past the queue deadline.
	// The worker is healthy and must NOT be excluded or retried hot —
	// errors.Is(fault, ErrAdmission) holds.
	FaultAdmission
	// FaultQuota is a typed per-tenant resource-budget rejection (buffered
	// bytes or intermediate cap). Deterministic for the offered load, never
	// retried — errors.Is(fault, ErrQuota) holds.
	FaultQuota
)

// String names the kind for error text and logs.
func (k FaultKind) String() string {
	switch k {
	case FaultDial:
		return "dial"
	case FaultHandshake:
		return "handshake"
	case FaultTimeout:
		return "timeout"
	case FaultConnLost:
		return "connection lost"
	case FaultWorkerJob:
		return "worker job error"
	case FaultPeer:
		return "peer fault"
	case FaultAdmission:
		return "admission rejected"
	case FaultQuota:
		return "quota exceeded"
	}
	return "unknown"
}

// WorkerFault is one classified per-worker per-job failure. It preserves the
// session protocol's established error text (address and job number in every
// message) while carrying the structure recovery needs: which worker, which
// job, what kind, and whether retrying over the survivors can help.
type WorkerFault struct {
	// Kind classifies the failure.
	Kind FaultKind
	// Worker is the failing sub-job's worker index within the job's fan-out
	// (-1 for dial-time faults, which precede any job).
	Worker int
	// Addr is the faulted worker's address — the PEER's address for
	// FaultPeer, where the reporting worker is healthy.
	Addr string
	// Job is the session job number (0 for dial-time faults).
	Job uint32
	// Err is the underlying cause.
	Err error

	// op is the coordinator operation ("job", "stage job", ...) the fault
	// interrupted; it keeps Error() byte-compatible with the pre-typed text.
	op string
	// code is an error reply's typed code (codeNone for any other fault).
	code int
	// retry caches the retryability decision made at classification time.
	retry bool
}

// Error implements error, reproducing the untyped messages' shape so error
// text stays stable: "netexec: job 3 on worker 1 (127.0.0.1:4242): ...".
func (f *WorkerFault) Error() string {
	switch {
	case f.Kind == FaultDial && f.op == "":
		return fmt.Sprintf("netexec: dial %s: %v", f.Addr, f.Err)
	case f.Kind == FaultHandshake && f.op == "":
		return fmt.Sprintf("netexec: session handshake to %s: %v", f.Addr, f.Err)
	}
	return fmt.Sprintf("netexec: %s %d on worker %d (%s): %v", f.op, f.Job, f.Worker, f.Addr, f.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (f *WorkerFault) Unwrap() error { return f.Err }

// RetryableFault reports whether excluding the faulted worker and retrying
// over the survivors can succeed — the interface exec.RetryableFault probes
// for, keeping the exec driver layer free of any netexec dependency.
// Transport faults (dial, handshake, timeout, lost connection, peer) are
// retryable; deterministic failures (validation, worker-side job errors other
// than a shutdown-drain refusal) are not.
func (f *WorkerFault) RetryableFault() bool { return f.retry }

// Faults extracts every WorkerFault from an error tree (errors.Join
// aggregates, fmt.Errorf wrappers). Order follows the tree walk, which for a
// job's aggregated error is worker order.
func Faults(err error) []*WorkerFault {
	var out []*WorkerFault
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if f, ok := e.(*WorkerFault); ok {
			out = append(out, f)
			return
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, c := range u.Unwrap() {
				walk(c)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return out
}

// classifyIOErr maps a transport-level error onto a fault kind. Anything
// that is recognizably a network/IO failure is a retryable transport fault;
// everything else (coordinator-side validation) stays FaultUnknown.
func classifyIOErr(err error) FaultKind {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return FaultTimeout
	}
	switch {
	case errors.Is(err, syscall.ECONNREFUSED):
		return FaultDial
	case errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed):
		return FaultConnLost
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return FaultConnLost
	}
	return FaultUnknown
}

// connFault classifies a connection-level failure of one sub-job on this
// connection and marks the worker down for Survivors.
func (c *sessConn) connFault(op string, id uint32, workerID int, err error) *WorkerFault {
	kind := classifyIOErr(err)
	retry := kind != FaultUnknown
	if retry {
		c.down.Store(true)
	}
	return &WorkerFault{Kind: kind, Worker: workerID, Addr: c.addr, Job: id, Err: err,
		op: op, retry: retry}
}

// livenessFault declares this connection's worker dead for exceeding the
// per-job liveness deadline: the connection is failed (delivering the fault
// to every pending sub-job) and closed, so a wedged worker cannot absorb
// further jobs.
func (c *sessConn) livenessFault(op string, id uint32, workerID int, err error) *WorkerFault {
	c.down.Store(true)
	c.fail(err)
	_ = c.conn.Close()
	return &WorkerFault{Kind: FaultTimeout, Worker: workerID, Addr: c.addr, Job: id, Err: err,
		op: op, retry: true}
}

// workerFault classifies an explicit worker-side job error reply. A reply
// naming a peer fault address indicts the PEER — the session marks that
// worker down so recovery excludes the machine that actually died. A reply
// carrying a rejection code becomes a typed admission/quota fault that
// matches ErrAdmission/ErrQuota via errors.Is and is never retried: the
// worker is healthy, the rejection is policy. A draining worker's refusal
// (codeDraining) and a contribution to a transfer no longer open
// (codeCancelled) are the job errors retried; any other is deterministic.
func (c *sessConn) workerFault(op string, id uint32, workerID int, m *reply) *WorkerFault {
	switch m.Code {
	case codeAdmission:
		return &WorkerFault{Kind: FaultAdmission, Worker: workerID, Addr: c.addr, Job: id,
			Err: fmt.Errorf("%w: %s", ErrAdmission, m.Err), op: op, code: m.Code}
	case codeQuota:
		return &WorkerFault{Kind: FaultQuota, Worker: workerID, Addr: c.addr, Job: id,
			Err: fmt.Errorf("%w: %s", ErrQuota, m.Err), op: op, code: m.Code}
	}
	if m.FaultAddr != "" {
		if c.sess != nil {
			c.sess.markDown(m.FaultAddr)
		}
		return &WorkerFault{Kind: FaultPeer, Worker: workerID, Addr: m.FaultAddr, Job: id,
			Err: errors.New(m.Err), op: op, retry: true}
	}
	return &WorkerFault{Kind: FaultWorkerJob, Worker: workerID, Addr: c.addr, Job: id,
		Err: errors.New(m.Err), op: op, code: m.Code, retry: m.Code == codeDraining || m.Code == codeCancelled}
}

// peerFaultError marks a worker-side failure as caused by the named peer —
// a contribution that could not reach its target. Its Error() is transparent
// (the text stays the wrapped error's), but the job's goroutine (onEOS) lifts
// the address into reply.FaultAddr so the coordinator can mark the machine
// that actually died, not the healthy worker reporting it.
type peerFaultError struct {
	addr string
	err  error
}

func (e *peerFaultError) Error() string { return e.err.Error() }
func (e *peerFaultError) Unwrap() error { return e.err }

// protoFault wraps a coordinator-side validation failure (never retryable).
func (c *sessConn) protoFault(op string, id uint32, workerID int, err error) *WorkerFault {
	return &WorkerFault{Kind: FaultUnknown, Worker: workerID, Addr: c.addr, Job: id, Err: err, op: op}
}

// markDown marks the connection to addr (if this session holds one) as
// unusable for future attempts without waiting for its read loop to observe
// the death — how a peer-reported fault excludes a worker the coordinator
// has not yet heard fail directly.
func (s *Session) markDown(addr string) {
	for _, c := range s.conns {
		if c.addr == addr {
			c.down.Store(true)
		}
	}
}

// Survivors implements exec.FaultTolerantRuntime: it returns a session view
// over the workers still usable after the faults observed so far. The view
// shares the parent's connections, job-number counter and relayed-pairs
// accounting, so jobs on the derived and parent sessions multiplex safely;
// only the conn list shrinks — spare workers dialed beyond the plan width
// substitute for the dead automatically. With every worker healthy it
// returns the session itself. It fails when no worker survives.
func (s *Session) Survivors() (exec.Runtime, int, error) {
	live := make([]*sessConn, 0, len(s.conns))
	for _, c := range s.conns {
		if !c.down.Load() && c.failedErr() == nil {
			live = append(live, c)
		}
	}
	if len(live) == len(s.conns) {
		return s, len(s.conns), nil
	}
	if len(live) == 0 {
		return nil, 0, errors.New("netexec: no surviving workers")
	}
	d := &Session{conns: live, sessShared: s.sessShared, tenant: s.tenant}
	return d, len(live), nil
}
