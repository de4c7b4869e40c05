// Package faultnet injects deterministic network faults into the netexec
// wire protocol for testing recovery paths. It wraps a worker's net.Listener
// so every accepted connection passes through a scriptable frame-aware tap:
// the tap reads the prelude (magic, version, tenant), follows the session
// protocol's frame header (wire.Version, a coordinator's session or a peer's
// contribution; anything else is opaque), counts matching frames per rule
// and fires each rule's action exactly once at a precise frame boundary —
// kill after the N-th block, reset on the first window reply, stall
// mid-transfer, hold a frame until a frame on another connection passes, or
// run an arbitrary hook (e.g. Close a victim worker at a stage boundary).
// Faults are therefore reproducible: the same script against the same
// workload fails at the same frame every run, which is what
// lets the crosscheck assert recovered output bit-identical to a fault-free
// reference instead of sampling failure windows probabilistically.
//
// A Script is shared by every connection its listener accepts: rule
// counters are global across connections, so "the third inbound OPEN,
// whichever connection carries it" is expressible.
package faultnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ewh/internal/wire"
)

// FrameAny is a rule's frame that matches every frame regardless of type;
// the frame types are internal/wire's.
const FrameAny byte = 0

// Dir selects which byte stream a rule watches, relative to the wrapped
// endpoint (the worker, for a wrapped listener).
type Dir int

const (
	// In matches frames the endpoint receives (coordinator→worker opens,
	// blocks, plans; a peer's contributions).
	In Dir = iota
	// Out matches frames the endpoint sends (worker→coordinator window
	// replies and summaries, pairs, metrics).
	Out
)

func (d Dir) String() string {
	if d == Out {
		return "out"
	}
	return "in"
}

// Action is what a rule does when it fires.
type Action int

const (
	// ActClose closes the connection (both sides observe a lost
	// connection).
	ActClose Action = iota
	// ActReset closes with SO_LINGER=0, surfacing ECONNRESET at the peer
	// where the transport supports it (falls back to a plain close).
	ActReset
	// ActStall blocks the matching I/O operation until the connection is
	// closed — a wedged-but-alive peer, the failure mode deadlines exist
	// for. A stall with a release (Rule.Until) is a hold instead: its frame
	// is delivered intact once the release fires, or at holdBound.
	ActStall
	// ActHook runs Fn on the goroutine doing the I/O and lets the traffic
	// continue — the drop-worker-at-stage-boundary primitive (Fn closes a
	// Worker). An inbound frame's hook returns before its bytes are
	// delivered, an outbound one's runs once they are written, so the fault
	// lands at that boundary and not after the endpoint has moved on.
	ActHook
)

func (a Action) String() string {
	switch a {
	case ActClose:
		return "close"
	case ActReset:
		return "reset"
	case ActStall:
		return "stall"
	case ActHook:
		return "hook"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Rule fires once, at the N-th frame matching (Dir, Frame) across all of
// the script's connections.
type Rule struct {
	// Dir is the watched direction, relative to the wrapped endpoint.
	Dir Dir
	// Frame is the frame type to match; FrameAny matches all frames.
	Frame byte
	// N fires the rule on the N-th match (1-based); 0 means the first.
	N int
	// Conn limits the rule to the listener's Conn-th accepted connection
	// (1-based; 0: any), as a peer's contribution shares a coordinator's types.
	Conn int
	// Action is the fault to inject.
	Action Action
	// Fn is the hook for ActHook; ignored otherwise.
	Fn func()
	// Until releases an ActStall once every rule of that script has fired —
	// the script of another listener's tap, or of a second tap wrapped around
	// this one — or at holdBound, whichever comes first; a close still fails
	// the I/O. Nil: only a close ends the stall.
	Until *Script
}

// holdBound is how long a held frame waits for its release: a release that
// never comes delays the frame rather than wedging the connection.
const holdBound = 300 * time.Millisecond

// errInjected is what a faulted operation returns to its endpoint.
var errInjected = errors.New("faultnet: injected fault")

// scriptRule is a Rule plus its firing state.
type scriptRule struct {
	Rule
	seen  int
	fired bool
}

// Script holds the rules for one fault scenario. One Script serves every
// connection of the listener it wraps; counters span connections.
type Script struct {
	mu    sync.Mutex
	rules []*scriptRule
	seen  [2][256]int   // frames carried, by direction and type
	fired int           // rules fired so far
	done  chan struct{} // closed once every rule has fired
}

// NewScript builds a script from rules. A nil or empty script is a
// transparent tap.
func NewScript(rules ...Rule) *Script {
	s := &Script{done: make(chan struct{})}
	for _, r := range rules {
		if r.N < 1 {
			r.N = 1
		}
		s.rules = append(s.rules, &scriptRule{Rule: r})
	}
	if len(rules) == 0 {
		close(s.done)
	}
	return s
}

// Fired reports whether every rule has fired — the crosscheck's assertion
// that the scenario actually injected its fault rather than passing
// vacuously.
func (s *Script) Fired() bool {
	if s == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired == len(s.rules)
}

// Seen reports how many frames of type frame the script's connections have
// carried in direction dir. A rule-less script only counts, so a fault-free
// run tells a test which frame indices a rule's N can name.
func (s *Script) Seen(dir Dir, frame byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[dir][frame]
}

// match records one observed frame on the conn-th accepted connection and
// returns the rule to fire now, if any. At most one rule fires per frame
// (scripts wanting compound faults use ActHook).
func (s *Script) match(dir Dir, frame byte, conn int) *scriptRule {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[dir][frame]++
	for _, r := range s.rules {
		if r.fired || r.Dir != dir || (r.Frame != FrameAny && r.Frame != frame) || (r.Conn > 0 && r.Conn != conn) {
			continue
		}
		r.seen++
		if r.seen >= r.N {
			r.fired = true
			if s.fired++; s.fired == len(s.rules) {
				close(s.done)
			}
			return r
		}
	}
	return nil
}

// Listener wraps a net.Listener so every accepted connection is tapped by
// the script.
type Listener struct {
	net.Listener
	script   *Script
	accepted atomic.Int64
}

// Wrap taps ln with script. Hand the result to netexec.ListenWorkerOn.
func Wrap(ln net.Listener, script *Script) *Listener {
	return &Listener{Listener: ln, script: script}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newConn(c, l.script, int(l.accepted.Add(1))), nil
}

// Conn is one tapped connection: a streaming frame parser per direction
// feeds the script, and fired rules act on the underlying connection.
type Conn struct {
	net.Conn
	script  *Script
	ordinal int // the listener accepted it ordinal-th, from 1

	closed    chan struct{}
	closeOnce sync.Once

	// framed records that the inbound prelude named the session protocol,
	// shared by both directions: the prelude travels inbound only, but the
	// endpoint's replies use the same protocol.
	framed atomic.Bool

	rmu sync.Mutex
	rt  tracker
	// held is what a read took off the wire from its first struck frame on,
	// delivered by the next reads, and heldErr the error that read returned.
	held    []segment
	heldErr error
	wmu     sync.Mutex
	wt      tracker
}

func newConn(c net.Conn, script *Script, ordinal int) *Conn {
	fc := &Conn{Conn: c, script: script, ordinal: ordinal, closed: make(chan struct{})}
	fc.rt = tracker{conn: fc, dir: In, state: statePrelude}
	fc.wt = tracker{conn: fc, dir: Out, state: stateAwaitVersion}
	return fc
}

// Close implements net.Conn and also releases any stalled operations.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// reset closes the connection so the peer sees an RST where possible.
func (c *Conn) reset() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

// stall blocks until the connection is closed, then reports the injected
// fault. A hold (a stall with a release) returns nil instead once its
// release fires or holdBound elapses, and its frame goes on.
func (c *Conn) stall(until *Script) error {
	if until == nil {
		<-c.closed
		return errInjected
	}
	bound := time.NewTimer(holdBound)
	defer bound.Stop()
	select {
	case <-c.closed:
		return errInjected
	case <-until.done:
	case <-bound.C:
	}
	return nil
}

// act executes a struck rule against the connection. It returns a non-nil
// error when the I/O operation must abort instead of delivering the struck
// frame; a hook runs and lets the traffic continue.
func (c *Conn) act(r *scriptRule) error {
	switch r.Action {
	case ActClose:
		_ = c.Close()
		return errInjected
	case ActReset:
		c.reset()
		return errInjected
	case ActStall:
		return c.stall(r.Until)
	}
	if r.Fn != nil {
		r.Fn()
	}
	return nil
}

// segment is inbound bytes a read took off the wire but has not delivered:
// they open with a struck frame, whose rule acts before they are.
type segment struct {
	r *scriptRule
	b []byte
}

// Read taps the inbound stream: bytes are parsed for frame boundaries BEFORE
// delivery, and the frames ahead of a struck frame are delivered first. The
// fault then lands at that frame on the endpoint's next Read: a close, reset
// or stall with the frame (and the rest of the chunk) undelivered — a
// mid-stream death, exactly as a crashed sender would leave the wire — and a
// hook returns, or a hold is released, before the endpoint sees the frame.
func (c *Conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if len(c.held) == 0 {
		n, err := c.Conn.Read(p)
		strikes := c.rt.feed(p[:n])
		if len(strikes) == 0 {
			return n, err
		}
		for i, s := range strikes {
			end := n
			if i+1 < len(strikes) {
				end = strikes[i+1].at
			}
			c.held = append(c.held, segment{r: s.r, b: append([]byte(nil), p[s.at:end]...)})
		}
		c.heldErr = err
		if k := strikes[0].at; k > 0 {
			return k, nil
		}
	}
	seg := &c.held[0]
	if seg.r != nil {
		r := seg.r
		seg.r = nil
		if err := c.act(r); err != nil {
			c.held = nil
			return 0, err
		}
	}
	n := copy(p, seg.b)
	if seg.b = seg.b[n:]; len(seg.b) > 0 {
		return n, nil
	}
	if c.held = c.held[1:]; len(c.held) > 0 {
		return n, nil
	}
	c.held = nil
	return n, c.heldErr
}

// Write taps the outbound stream symmetrically: the frames ahead of a struck
// frame are written, then a close, reset or stall acts with the struck frame
// and the rest of the chunk unwritten, a released hold writes them, and a
// hook runs once its frame is written (with the frames up to the next
// strike).
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	strikes := c.wt.feed(p)
	c.wmu.Unlock()
	n := 0
	for {
		k := 0
		for k < len(strikes) && strikes[k].r.Action == ActHook {
			k++
		}
		end := len(p)
		if k < len(strikes) {
			end = strikes[k].at
		}
		m, err := c.Conn.Write(p[n:end])
		n += m
		for _, s := range strikes[:min(k+1, len(strikes))] { // the hooks, then the fault
			if err == nil {
				err = c.act(s.r)
			}
		}
		if err != nil || k == len(strikes) {
			return n, err
		}
		strikes = strikes[k+1:]
	}
}

// tracker states.
const (
	statePrelude      = iota // collecting the prelude's magic and version
	stateTenant              // reading the prelude's tenant length, to skip the tenant
	stateAwaitVersion        // outbound: waiting for the inbound prelude's verdict
	stateHeader              // collecting a frame header
	statePayload             // skipping payload bytes
	stateOpaque              // unframed traffic (unknown magic or version)
)

// tracker is a one-direction streaming frame parser. It accumulates just
// enough bytes (prelude or header) to know each frame's type and length,
// reports every frame start to the script, and skips payloads without
// copying.
type tracker struct {
	conn  *Conn
	dir   Dir
	state int
	buf   [wire.HeaderLen]byte // prelude or header accumulator
	have  int
	skip  int // payload bytes left to skip
}

// strike is a rule fired by a frame of the chunk being fed: at is the offset
// of the frame's first byte in the chunk (0 when its header began in an
// earlier one).
type strike struct {
	at int
	r  *scriptRule
}

// feed advances the parser over one chunk and returns the rules its frames
// fired, in frame order. It stops at the first close, reset or stall that is
// not a hold: the frames past it never reach the endpoint, so they are
// neither parsed nor counted.
func (t *tracker) feed(p []byte) []strike {
	var strikes []strike
	for off := 0; off < len(p); {
		switch t.state {
		case stateOpaque:
			return strikes
		case stateAwaitVersion:
			// The endpoint is writing. Replies only ever follow inbound
			// traffic, so the inbound prelude has been parsed by now; an
			// unknown version means unframed traffic either way.
			if !t.conn.framed.Load() {
				t.state = stateOpaque
				return strikes
			}
			t.state = stateHeader
		case statePrelude:
			n := copy(t.buf[t.have:wire.PreludeLen], p[off:])
			t.have += n
			off += n
			if t.have < wire.PreludeLen {
				return strikes
			}
			t.have = 0
			if !wire.IsSession(t.buf[:wire.PreludeLen]) {
				t.state = stateOpaque
				return strikes
			}
			t.conn.framed.Store(true)
			t.state = stateTenant
		case stateTenant:
			// The tenant is skipped like a payload, then the frames begin.
			t.skip = int(p[off])
			off++
			t.state = statePayload
		case stateHeader:
			n := copy(t.buf[t.have:], p[off:])
			t.have += n
			off += n
			if t.have < wire.HeaderLen {
				return strikes
			}
			t.have = 0
			typ, _, size := wire.Header(t.buf[:])
			t.skip = int(size)
			t.state = statePayload
			if r := t.conn.script.match(t.dir, typ, t.conn.ordinal); r != nil {
				strikes = append(strikes, strike{at: max(off-wire.HeaderLen, 0), r: r})
				if r.Action != ActHook && r.Until == nil {
					return strikes
				}
			}
		case statePayload:
			n := min(t.skip, len(p)-off)
			t.skip -= n
			off += n
			if t.skip == 0 {
				t.state = stateHeader
			}
		}
	}
	return strikes
}
