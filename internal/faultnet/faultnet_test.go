package faultnet

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"ewh/internal/wire"
)

// wireFrame encodes a frame: its header, then the payload.
func wireFrame(typ byte, job uint32, payload []byte) []byte {
	b := make([]byte, wire.HeaderLen, wire.HeaderLen+len(payload))
	wire.PutHeader(b, typ, job, len(payload))
	return append(b, payload...)
}

func pipeConn(t *testing.T, script *Script) (*Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	fc := newConn(a, script, 1)
	t.Cleanup(func() { _ = fc.Close(); _ = b.Close() })
	return fc, b
}

func TestScriptCountingAndFired(t *testing.T) {
	s := NewScript(
		Rule{Dir: In, Frame: wire.StreamBase, N: 2, Action: ActClose},
		Rule{Dir: Out, Frame: FrameAny, Action: ActClose},
		Rule{Dir: In, Frame: wire.Open, Conn: 2, Action: ActClose},
	)
	if s.Fired() {
		t.Fatal("fresh script reports fired")
	}
	if s.match(In, wire.StreamBase, 1) != nil {
		t.Fatal("rule fired on the 1st match with N=2")
	}
	if s.match(In, wire.EOS, 1) != nil {
		t.Fatal("rule matched the wrong frame type")
	}
	if s.match(Out, wire.StreamBase, 1) == nil {
		t.Fatal("FrameAny rule did not match")
	}
	if s.match(In, wire.Open, 1) != nil {
		t.Fatal("a rule limited to the 2nd connection matched the 1st")
	}
	if s.match(In, wire.Open, 2) == nil {
		t.Fatal("a rule limited to the 2nd connection did not match it")
	}
	r := s.match(In, wire.StreamBase, 3)
	if r == nil {
		t.Fatal("rule did not fire on its 2nd match")
	}
	if !s.Fired() {
		t.Fatal("all rules fired but Fired() is false")
	}
	if s.match(In, wire.StreamBase, 1) != nil {
		t.Fatal("single-shot rule fired twice")
	}
	if s.Seen(In, wire.StreamBase) != 3 || s.Seen(In, wire.EOS) != 1 || s.Seen(Out, wire.StreamBase) != 1 {
		t.Fatalf("frames seen: in block %d, in eos %d, out block %d; want 3, 1, 1",
			s.Seen(In, wire.StreamBase), s.Seen(In, wire.EOS), s.Seen(Out, wire.StreamBase))
	}
	var nilScript *Script
	if !nilScript.Fired() || nilScript.match(In, FrameAny, 1) != nil {
		t.Fatal("nil script must be a transparent tap")
	}
}

func TestTrackerFiresAtExactV3Frame(t *testing.T) {
	// The inbound tracker must fire on the 2nd Block frame even when the
	// stream arrives one byte at a time — the prelude's tenant skipped like
	// a payload — and must leave the 1st frame (and everything before the
	// fatal header) delivered.
	s := NewScript(Rule{Dir: In, Frame: wire.StreamBase, N: 2, Action: ActClose})
	fc, _ := pipeConn(t, s)

	var stream []byte
	stream = append(stream, wire.Prelude(wire.Version, "tenant-a")...)
	stream = append(stream, wireFrame(wire.Open, 1, []byte("open-payload"))...)
	stream = append(stream, wireFrame(wire.StreamBase, 1, make([]byte, 64))...)
	stream = append(stream, wireFrame(wire.StreamBaseEnd, 1, []byte{1, 2, 3})...)
	cut := len(stream)
	stream = append(stream, wireFrame(wire.StreamBase, 1, make([]byte, 32))...)
	stream = append(stream, wireFrame(wire.EOS, 1, nil)...)

	var strikes []strike
	fed := 0
	for i := range stream {
		if strikes = fc.rt.feed(stream[i : i+1]); len(strikes) > 0 {
			break
		}
		fed++
	}
	if len(strikes) != 1 || strikes[0].r.Action != ActClose || strikes[0].at != 0 {
		t.Fatalf("feed struck %+v, want the close rule at the chunk's first byte", strikes)
	}
	// The fatal byte is the last byte of the 2nd Block frame's header.
	if want := cut + 9 - 1; fed != want {
		t.Fatalf("fault fired after %d bytes, want %d (2nd block header)", fed, want)
	}
	if !s.Fired() {
		t.Fatal("script not marked fired")
	}
	if err := fc.act(strikes[0].r); !errors.Is(err, errInjected) {
		t.Fatalf("the close acted with %v, want the injected fault", err)
	}
	select {
	case <-fc.closed:
	default:
		t.Fatal("ActClose did not close the connection")
	}
}

// TestFaultLandsAtItsFrame pins where a struck frame's fault lands when
// frames ahead of it share its read or write: those frames reach the other
// side first, and only then does the close, reset or stall take effect, the
// struck frame undelivered.
func TestFaultLandsAtItsFrame(t *testing.T) {
	head := append(wire.Prelude(wire.Version, "t"), wireFrame(wire.Open, 1, make([]byte, 20))...)
	struck := wireFrame(wire.StreamBase, 1, make([]byte, 16))
	for _, action := range []Action{ActClose, ActReset, ActStall} {
		t.Run("in/"+action.String(), func(t *testing.T) {
			fc, peer := pipeConn(t, NewScript(Rule{Dir: In, Frame: wire.StreamBase, Action: action}))
			if action == ActStall { // released here, past both reads
				time.AfterFunc(100*time.Millisecond, func() { _ = fc.Close() })
			}
			// One write, read whole: the struck frame shares the read.
			go func() { _, _ = peer.Write(append(append([]byte(nil), head...), struck...)) }()
			got := make([]byte, 512)
			n, err := fc.Read(got)
			if err != nil || string(got[:n]) != string(head) {
				t.Fatalf("the endpoint read %q (%v), want the frames ahead of the struck one", got[:n], err)
			}
			if n, err := fc.Read(make([]byte, 64)); n != 0 || !errors.Is(err, errInjected) {
				t.Fatalf("the read at the struck frame = %d, %v; want 0, the injected fault", n, err)
			}
		})
	}
	t.Run("out/close", func(t *testing.T) {
		fc, peer := pipeConn(t, NewScript(Rule{Dir: Out, Frame: wire.Reply, N: 2, Action: ActClose}))
		go func() { _, _ = peer.Write(wire.Prelude(wire.Version, "")) }()
		if _, err := io.ReadFull(fc, make([]byte, len(wire.Prelude(wire.Version, "")))); err != nil {
			t.Fatal(err)
		}
		first := wireFrame(wire.Reply, 1, make([]byte, 12))
		received := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(peer)
			received <- b
		}()
		n, err := fc.Write(append(append([]byte(nil), first...), wireFrame(wire.Reply, 1, make([]byte, 8))...))
		if n != len(first) || !errors.Is(err, errInjected) {
			t.Fatalf("the write = %d, %v; want %d, the injected fault", n, err, len(first))
		}
		if b := <-received; string(b) != string(first) {
			t.Fatalf("the peer received %d bytes, want the %d of the frame ahead", len(b), len(first))
		}
	})
}

func TestTrackerPeerHeaders(t *testing.T) {
	// A peer's contribution frames like any session job — its OPEN, then its
	// base run — and the tracker follows it across every frame; the retired
	// mesh's version-6 prelude and its head and block frames are opaque.
	for _, version := range []uint16{wire.Version, 6} {
		s := NewScript(Rule{Dir: In, Frame: wire.StreamBase, N: 3, Action: ActClose},
			Rule{Dir: In, Frame: 31, Action: ActClose})
		fc, _ := pipeConn(t, s)
		stream := wire.Prelude(version, "tenant-a")
		stream = append(stream, wireFrame(wire.Open, 1, make([]byte, 20))...)
		for i := 0; i < 3; i++ {
			stream = append(stream, wireFrame(wire.StreamBase, 1, make([]byte, 8+8*7))...)
		}
		struck := false
		fed := 0
		for i := range stream {
			fed++
			if struck = len(fc.rt.feed(stream[i:i+1])) > 0; struck {
				break
			}
		}
		if version != wire.Version {
			if struck || s.Seen(In, wire.Open) != 0 {
				t.Fatalf("version %d: the tracker framed retired traffic (struck %v)", version, struck)
			}
			continue
		}
		if !struck || s.Seen(In, wire.StreamBase) != 3 {
			t.Fatalf("contribution rule did not fire (struck %v)", struck)
		}
		// The fatal byte is the last byte of the 3rd base frame's header.
		if want := len(stream) - (8 + 8*7); fed != want {
			t.Fatalf("fault fired after %d bytes, want %d (3rd base frame's header)", fed, want)
		}
	}
}

func TestTrackerOpaqueOnUnknownMagic(t *testing.T) {
	s := NewScript(Rule{Dir: In, Frame: FrameAny, Action: ActClose})
	fc, _ := pipeConn(t, s)
	junk := append([]byte("NOPE\x00\x00"), make([]byte, 256)...)
	if s := fc.rt.feed(junk); len(s) > 0 {
		t.Fatalf("opaque traffic struck %+v", s)
	}
	if fc.rt.state != stateOpaque {
		t.Fatalf("state %d, want opaque", fc.rt.state)
	}
	if s.Fired() {
		t.Fatal("rule fired on unframed traffic")
	}
}

func TestOutboundTrackerAdoptsInboundVersion(t *testing.T) {
	// The prelude travels inbound only; the outbound tracker must pick up
	// the sniffed version and then parse replies with the right header size.
	s := NewScript(Rule{Dir: Out, Frame: wire.Reply, N: 2, Action: ActClose})
	fc, _ := pipeConn(t, s)
	if s := fc.rt.feed(wire.Prelude(wire.Version, "")); len(s) > 0 {
		t.Fatalf("the prelude struck %+v", s)
	}
	var out []byte
	out = append(out, wireFrame(wire.Reply, 1, make([]byte, 40))...)
	out = append(out, wireFrame(wire.Reply, 1, make([]byte, 10))...)
	struck := false
	for i := range out {
		if struck = len(fc.wt.feed(out[i:i+1])) > 0; struck {
			break
		}
	}
	if !struck || !s.Fired() {
		t.Fatal("outbound rule did not fire")
	}
}

func TestStallReleasedByClose(t *testing.T) {
	// ActStall wedges the matching read until the connection is closed —
	// and Close must win even while the stall holds the read path.
	s := NewScript(Rule{Dir: In, Frame: wire.Open, Action: ActStall})
	fc, peer := pipeConn(t, s)

	got := make(chan error, 1)
	go func() {
		buf := make([]byte, 512)
		for {
			if _, err := fc.Read(buf); err != nil {
				got <- err
				return
			}
		}
	}()
	go func() {
		_, _ = peer.Write(wire.Prelude(wire.Version, ""))
		_, _ = peer.Write(wireFrame(wire.Open, 1, []byte("job")))
	}()

	select {
	case err := <-got:
		t.Fatalf("read returned %v before Close released the stall", err)
	case <-time.After(100 * time.Millisecond):
	}
	_ = fc.Close()
	select {
	case err := <-got:
		if !errors.Is(err, errInjected) {
			t.Fatalf("stalled read returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release the stalled read")
	}
}

// TestHoldReleasedByAnotherConnection pins a stall with a release, inbound
// and outbound: the held frame waits for a rule that fires on another
// listener's connection, or for holdBound when that never fires, and is then
// delivered intact.
func TestHoldReleasedByAnotherConnection(t *testing.T) {
	head := wire.Prelude(wire.Version, "")
	frames := append(wireFrame(wire.Open, 1, []byte("job")), wireFrame(wire.EOS, 1, nil)...)
	whole := append(append([]byte(nil), head...), frames...)
	for _, c := range []struct {
		dir      Dir
		released bool
	}{{In, true}, {In, false}, {Out, true}} {
		release := NewScript(Rule{Dir: In, Frame: wire.EOS, Action: ActHook})
		fc, peer := pipeConn(t, NewScript(Rule{Dir: c.dir, Frame: wire.Open, Action: ActStall, Until: release}))
		other, otherPeer := pipeConn(t, release)
		from, to, stream := io.Writer(peer), io.Reader(fc), whole
		if c.dir == Out { // the endpoint writes once the prelude is in
			go func() { _, _ = peer.Write(head) }()
			if _, err := io.ReadFull(fc, make([]byte, len(head))); err != nil {
				t.Fatal(err)
			}
			from, to, stream = fc, peer, frames
		}
		go func() { _, _ = from.Write(stream) }()
		got := make(chan []byte, 1)
		start := time.Now()
		go func() {
			b := make([]byte, len(stream))
			n, _ := io.ReadFull(to, b)
			got <- b[:n]
		}()
		select {
		case <-got:
			t.Fatalf("%+v: the held frame was delivered before its release", c)
		case <-time.After(50 * time.Millisecond):
		}
		if c.released {
			go func() { _, _ = otherPeer.Write(whole) }()
			go func() { _, _ = io.ReadFull(other, make([]byte, len(whole))) }()
		}
		select {
		case b := <-got:
			if string(b) != string(stream) {
				t.Fatalf("%+v: delivered %q, want %q", c, b, stream)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%+v: the held frame was never delivered", c)
		}
		if took := time.Since(start); c.released == (took >= holdBound) {
			t.Fatalf("%+v: the held frame was delivered after %v, holdBound %v", c, took, holdBound)
		}
	}
}

// TestHookLetsTrafficContinue pins where a hook runs: an inbound frame's hook
// runs once the bytes ahead of the frame are delivered and has returned
// before Read delivers the frame, an outbound one's runs after the peer has
// the written bytes, and the traffic flows on either way.
func TestHookLetsTrafficContinue(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	outHook := make(chan bool, 1) // whether the peer had the frame when the hook ran
	received := make(chan struct{})
	s := NewScript(
		Rule{Dir: In, Frame: wire.StreamBase, Action: ActHook,
			Fn: func() { close(entered); <-release }},
		Rule{Dir: Out, Frame: wire.Reply, Action: ActHook, Fn: func() {
			select {
			case <-received:
				outHook <- true
			case <-time.After(time.Second):
				outHook <- false
			}
		}},
	)
	fc, peer := pipeConn(t, s)
	var stream []byte
	stream = append(stream, wire.Prelude(wire.Version, "")...)
	stream = append(stream, wireFrame(wire.StreamBase, 1, make([]byte, 16))...)
	stream = append(stream, wireFrame(wire.EOS, 1, nil)...)
	go func() { _, _ = peer.Write(stream) }()

	type result struct {
		n   int
		err error
	}
	got := make(chan result, 1)
	go func() {
		n, err := io.ReadFull(fc, make([]byte, len(stream)))
		got <- result{n, err}
	}()
	<-entered
	select {
	case <-got:
		t.Fatal("Read delivered the frame before its hook returned")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if r := <-got; r.err != nil || r.n != len(stream) {
		t.Fatalf("Read after the hook = %d, %v; want %d, nil", r.n, r.err, len(stream))
	}

	reply := wireFrame(wire.Reply, 1, make([]byte, 24))
	go func() {
		if _, err := io.ReadFull(peer, make([]byte, len(reply))); err == nil {
			close(received)
		}
	}()
	if n, err := fc.Write(reply); err != nil || n != len(reply) {
		t.Fatalf("Write with an outbound hook = %d, %v; want %d, nil", n, err, len(reply))
	}
	if !<-outHook {
		t.Fatal("the outbound hook ran before its frame was written")
	}
	if !s.Fired() {
		t.Fatal("script not marked fired")
	}
}

func TestWrappedListenerEndToEnd(t *testing.T) {
	// Black-box: a scripted listener kills the connection at the 1st EOS the
	// endpoint receives; bytes up to the fatal frame flow through intact.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewScript(Rule{Dir: In, Frame: wire.EOS, Action: ActClose})
	wl := Wrap(ln, s)
	defer wl.Close()

	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		c, err := wl.Accept()
		if err != nil {
			done <- result{err: err}
			return
		}
		defer c.Close()
		n, err := io.Copy(io.Discard, c)
		done <- result{n: int(n), err: err}
	}()

	c, err := net.Dial("tcp", wl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var head []byte
	head = append(head, wire.Prelude(wire.Version, "")...)
	head = append(head, wireFrame(wire.Open, 7, make([]byte, 100))...)
	if _, err := c.Write(head); err != nil {
		t.Fatalf("pre-fault write: %v", err)
	}
	// The EOS ships separately, after the healthy chunk has landed.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Write(wireFrame(wire.EOS, 7, nil)); err != nil {
		// The injected close races the write; either outcome is fine.
		t.Logf("write after injection: %v", err)
	}

	r := <-done
	if r.err == nil || !errors.Is(r.err, errInjected) {
		t.Fatalf("endpoint read ended with %v, want injected fault", r.err)
	}
	if r.n < len(head) {
		t.Fatalf("endpoint saw %d of the %d pre-fault bytes", r.n, len(head))
	}
	if !s.Fired() {
		t.Fatal("script did not fire")
	}
}
