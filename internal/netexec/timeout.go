package netexec

import (
	"context"
	"net"
	"sync/atomic"
	"time"
)

// Timeouts bounds a connection's blocking operations so one hung peer fails
// a job (or a connection) instead of wedging the whole session. Dial bounds
// connection establishment (a coordinator's sessions and a worker's
// contribution sessions); IO is a per-operation progress deadline: every
// write, and every read that is part of an in-flight frame payload, must
// make progress within IO. Reads at
// frame boundaries are exempt — an idle persistent connection is legitimate
// — so the deadline measures stalled transfers, not quiet sessions (and not
// long-running worker joins, which produce no traffic while computing).
//
// Job is a per-sub-job liveness deadline: the total wall time from a
// sub-job's dispatch to its terminal reply. It catches the failure mode the
// other two cannot — a worker that accepted a job and went silent while its
// TCP connection stays healthy — at the cost of bounding legitimate
// computation, so it should be sized to the slowest expected job, not the
// slowest expected frame. A worker exceeding it is declared dead and its
// connection poisoned (see WorkerFault/FaultTimeout).
//
// The zero value disables all deadlines.
type Timeouts struct {
	Dial time.Duration
	IO   time.Duration
	Job  time.Duration
}

// dialTCP connects with the configured dial timeout (unbounded when zero),
// honoring ctx cancellation even while blocked in the kernel handshake —
// net.Dialer.DialContext aborts the in-flight connect when ctx ends, where
// the old net.DialTimeout path ignored the caller entirely.
func dialTCP(ctx context.Context, addr string, t Timeouts) (net.Conn, error) {
	d := net.Dialer{Timeout: t.Dial}
	return d.DialContext(ctx, "tcp", addr)
}

// timedConn wraps a connection with Timeouts.IO semantics: writes always
// refresh a write deadline (writes only happen while actively sending), and
// reads refresh a read deadline only while armed — the read loops arm
// around frame payloads and disarm at frame boundaries. Each Read/Write
// gets a fresh deadline, so the timeout bounds the maximum stall between
// progress, not the total transfer time. With io == 0 it is a passthrough.
type timedConn struct {
	net.Conn
	io    time.Duration
	armed atomic.Bool
}

func newTimedConn(c net.Conn, io time.Duration) *timedConn {
	return &timedConn{Conn: c, io: io}
}

func (c *timedConn) Read(p []byte) (int, error) {
	if c.io > 0 && c.armed.Load() {
		_ = c.Conn.SetReadDeadline(time.Now().Add(c.io))
	}
	return c.Conn.Read(p)
}

func (c *timedConn) Write(p []byte) (int, error) {
	if c.io > 0 {
		_ = c.Conn.SetWriteDeadline(time.Now().Add(c.io))
	}
	return c.Conn.Write(p)
}

// arm makes subsequent reads deadline-bounded (mid-frame).
func (c *timedConn) arm() {
	if c.io > 0 {
		c.armed.Store(true)
	}
}

// disarm returns reads to unbounded blocking (frame boundary) and clears
// any pending deadline so a buffered partial read can't fire it later.
func (c *timedConn) disarm() {
	if c.io > 0 {
		c.armed.Store(false)
		_ = c.Conn.SetReadDeadline(time.Time{})
	}
}

// armConn arms c when it is deadline-capable (a *timedConn with IO set).
func armConn(c net.Conn) {
	if tc, ok := c.(*timedConn); ok {
		tc.arm()
	}
}

// disarmConn is armConn's counterpart.
func disarmConn(c net.Conn) {
	if tc, ok := c.(*timedConn); ok {
		tc.disarm()
	}
}
