// Package faultnet injects deterministic network faults into the netexec
// wire protocols for testing recovery paths. It wraps a worker's
// net.Listener so every accepted connection passes through a scriptable
// frame-aware tap: the tap reads the protocol prelude (magic, version,
// tenant), follows the one frame header both protocol versions share (v7
// sessions, v6 peer mesh; anything else is opaque), counts matching
// frames per rule and fires each rule's action exactly once at a precise
// frame boundary — kill after the N-th block, reset on the first window
// reply, stall mid-transfer, or run an arbitrary hook (e.g. Close a victim
// worker at a stage boundary). Faults are therefore reproducible: the same
// script against the same workload fails at the same frame every run,
// which is what lets the crosscheck assert recovered output bit-identical
// to a fault-free reference instead of sampling failure windows
// probabilistically.
//
// A Script is shared by every connection its listener accepts: rule
// counters are global across connections, so "the first inbound peer block,
// whichever connection carries it" is expressible.
package faultnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// Mirror of the netexec wire protocol, kept in lockstep by a parity test in
// netexec (the constants are unexported there; faultnet must stay
// import-free of netexec so netexec tests can import faultnet).
const (
	// FrameAny matches every frame regardless of type.
	FrameAny byte = 0

	// v3 session frames. One OPEN opens every job kind; one REPLY carries
	// every answer but pairs: a stream window's, a plan job's summary, and
	// each job's final one.
	FrameOpen       byte = 10
	FrameEOS        byte = 14
	FramePairs      byte = 15
	FrameReply      byte = 16
	FrameAbort      byte = 17
	FramePlanCancel byte = 20
	FramePlan2      byte = 22

	// v3 run frames: a continuous join's, and every other job's relations as
	// base and window runs at epoch 0.
	FrameStreamBase    byte = 34
	FrameStreamBaseEnd byte = 35
	FrameStreamWin     byte = 36
	FrameStreamWinEnd  byte = 37

	// Peer-mesh frames.
	FramePeerHead  byte = 30
	FramePeerBlock byte = 31
)

// Protocol versions as they appear in the wire prelude.
const (
	VersionSession = 8
	VersionPeer    = 6
)

// Dir selects which byte stream a rule watches, relative to the wrapped
// endpoint (the worker, for a wrapped listener).
type Dir int

const (
	// In matches frames the endpoint receives (coordinator→worker opens,
	// blocks, plans; peer→worker contributions).
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
	// for.
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
	// Action is the fault to inject.
	Action Action
	// Fn is the hook for ActHook; ignored otherwise.
	Fn func()
}

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
	seen  [2][256]int // frames carried, by direction and type
}

// NewScript builds a script from rules. A nil or empty script is a
// transparent tap.
func NewScript(rules ...Rule) *Script {
	s := &Script{}
	for _, r := range rules {
		if r.N < 1 {
			r.N = 1
		}
		s.rules = append(s.rules, &scriptRule{Rule: r})
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
	for _, r := range s.rules {
		if !r.fired {
			return false
		}
	}
	return true
}

// Seen reports how many frames of type frame the script's connections have
// carried in direction dir. A rule-less script only counts, so a fault-free
// run tells a test which frame indices a rule's N can name.
func (s *Script) Seen(dir Dir, frame byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[dir][frame]
}

// match records one observed frame and returns the rule to fire now, if
// any. At most one rule fires per frame (scripts wanting compound faults
// use ActHook).
func (s *Script) match(dir Dir, frame byte) *scriptRule {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[dir][frame]++
	for _, r := range s.rules {
		if r.fired || r.Dir != dir || (r.Frame != FrameAny && r.Frame != frame) {
			continue
		}
		r.seen++
		if r.seen >= r.N {
			r.fired = true
			return r
		}
	}
	return nil
}

// Listener wraps a net.Listener so every accepted connection is tapped by
// the script.
type Listener struct {
	net.Listener
	script *Script
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
	return newConn(c, l.script), nil
}

// Conn is one tapped connection: a streaming frame parser per direction
// feeds the script, and fired rules act on the underlying connection.
type Conn struct {
	net.Conn
	script *Script

	closed    chan struct{}
	closeOnce sync.Once

	// version is the sniffed protocol version, shared by both directions:
	// the prelude travels inbound only, but the endpoint's replies use the
	// same protocol. 0 = not yet known.
	version atomic.Uint32

	rmu sync.Mutex
	rt  tracker
	wmu sync.Mutex
	wt  tracker
}

func newConn(c net.Conn, script *Script) *Conn {
	fc := &Conn{Conn: c, script: script, closed: make(chan struct{})}
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
// fault.
func (c *Conn) stall() error {
	<-c.closed
	return errInjected
}

// apply executes a fired rule against the connection. It returns a non-nil
// error when the current I/O operation must abort instead of delivering
// its bytes; a hook is queued on t instead, for the caller to run.
func (c *Conn) apply(t *tracker, r *scriptRule) error {
	switch r.Action {
	case ActClose:
		_ = c.Close()
		return errInjected
	case ActReset:
		c.reset()
		return errInjected
	case ActStall:
		return c.stall()
	case ActHook:
		if r.Fn != nil {
			t.hooks = append(t.hooks, r.Fn)
		}
	}
	return nil
}

// runHooks runs the hooks a feed queued, in frame order.
func runHooks(hooks []func()) {
	for _, fn := range hooks {
		fn()
	}
}

// Read taps the inbound stream: bytes are parsed for frame boundaries
// BEFORE delivery, so a rule firing on a frame kills the connection with
// that frame (and the rest of the chunk) undelivered — a mid-stream death,
// exactly as a crashed sender would leave the wire — and a hook returns
// before the endpoint sees the frame.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rmu.Lock()
		ferr := c.rt.feed(p[:n])
		hooks := c.rt.hooks
		c.rt.hooks = nil
		c.rmu.Unlock()
		runHooks(hooks)
		if ferr != nil {
			return 0, ferr
		}
	}
	return n, err
}

// Write taps the outbound stream symmetrically: a rule firing on an
// outbound frame suppresses the whole chunk, and a hook runs once the chunk
// is written.
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	ferr := c.wt.feed(p)
	hooks := c.wt.hooks
	c.wt.hooks = nil
	c.wmu.Unlock()
	defer runHooks(hooks)
	if ferr != nil {
		return 0, ferr
	}
	return c.Conn.Write(p)
}

// tracker states.
const (
	statePrelude      = iota // collecting the prelude's 6-byte magic+version
	stateTenant              // reading the prelude's tenant length, to skip the tenant
	stateAwaitVersion        // outbound: waiting for the inbound prelude's verdict
	stateHeader              // collecting a frame header
	statePayload             // skipping payload bytes
	stateOpaque              // unframed traffic (unknown magic or version)
)

// preludeLen is magic "EWHB" + u16 version, which a u8 tenant length and the
// tenant follow; frameHeaderLen is the frame header [type u8][job u32][len
// u32] of both versions.
const (
	preludeLen     = 6
	frameHeaderLen = 9
)

var wireMagic = [4]byte{'E', 'W', 'H', 'B'}

// tracker is a one-direction streaming frame parser. It accumulates just
// enough bytes (prelude or header) to know each frame's type and length,
// reports every frame start to the script, and skips payloads without
// copying.
type tracker struct {
	conn  *Conn
	dir   Dir
	state int
	buf   [frameHeaderLen]byte // prelude or header accumulator
	have  int
	skip  int      // payload bytes left to skip
	hooks []func() // fired hooks the current I/O operation still owes
}

// feed advances the parser over one chunk. A non-nil return aborts the
// endpoint's I/O operation (the fired rule killed or stalled the
// connection).
func (t *tracker) feed(p []byte) error {
	for len(p) > 0 {
		switch t.state {
		case stateOpaque:
			return nil
		case stateAwaitVersion:
			// The endpoint is writing. Replies only ever follow inbound
			// traffic, so the inbound prelude has been parsed by now; an
			// unknown version means unframed traffic either way.
			switch t.conn.version.Load() {
			case VersionSession, VersionPeer:
				t.state = stateHeader
			default:
				t.state = stateOpaque
				return nil
			}
		case statePrelude:
			n := copy(t.buf[t.have:preludeLen], p)
			t.have += n
			p = p[n:]
			if t.have < preludeLen {
				return nil
			}
			t.have = 0
			if [4]byte(t.buf[:4]) != wireMagic {
				t.state = stateOpaque
				return nil
			}
			v := binary.LittleEndian.Uint16(t.buf[4:6])
			switch v {
			case VersionSession, VersionPeer:
				t.conn.version.Store(uint32(v))
				t.state = stateTenant
			default:
				t.state = stateOpaque
				return nil
			}
		case stateTenant:
			// The tenant is skipped like a payload, then the frames begin.
			t.skip = int(p[0])
			p = p[1:]
			t.state = statePayload
		case stateHeader:
			n := copy(t.buf[t.have:], p)
			t.have += n
			p = p[n:]
			if t.have < frameHeaderLen {
				return nil
			}
			t.have = 0
			typ := t.buf[0]
			t.skip = int(binary.LittleEndian.Uint32(t.buf[5:]))
			t.state = statePayload
			if r := t.conn.script.match(t.dir, typ); r != nil {
				if err := t.conn.apply(t, r); err != nil {
					return err
				}
			}
		case statePayload:
			if t.skip > len(p) {
				t.skip -= len(p)
				return nil
			}
			p = p[t.skip:]
			t.skip = 0
			t.state = stateHeader
		}
	}
	return nil
}
