package faultnet

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// wireFrame encodes a frame of either version: [type u8][job u32][len u32] +
// payload.
func wireFrame(typ byte, job uint32, payload []byte) []byte {
	b := make([]byte, 9+len(payload))
	b[0] = typ
	binary.LittleEndian.PutUint32(b[1:5], job)
	binary.LittleEndian.PutUint32(b[5:9], uint32(len(payload)))
	copy(b[9:], payload)
	return b
}

// prelude encodes a connection's opening: magic, version, and the tenant
// behind its u8 length.
func prelude(version uint16, tenant string) []byte {
	b := binary.LittleEndian.AppendUint16([]byte("EWHB"), version)
	return append(append(b, byte(len(tenant))), tenant...)
}

func pipeConn(t *testing.T, script *Script) (*Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	fc := newConn(a, script)
	t.Cleanup(func() { _ = fc.Close(); _ = b.Close() })
	return fc, b
}

func TestScriptCountingAndFired(t *testing.T) {
	s := NewScript(
		Rule{Dir: In, Frame: FrameStreamBase, N: 2, Action: ActClose},
		Rule{Dir: Out, Frame: FrameAny, Action: ActClose},
	)
	if s.Fired() {
		t.Fatal("fresh script reports fired")
	}
	if s.match(In, FrameStreamBase) != nil {
		t.Fatal("rule fired on the 1st match with N=2")
	}
	if s.match(In, FrameEOS) != nil {
		t.Fatal("rule matched the wrong frame type")
	}
	if s.match(Out, FrameStreamBase) == nil {
		t.Fatal("FrameAny rule did not match")
	}
	r := s.match(In, FrameStreamBase)
	if r == nil {
		t.Fatal("rule did not fire on its 2nd match")
	}
	if !s.Fired() {
		t.Fatal("all rules fired but Fired() is false")
	}
	if s.match(In, FrameStreamBase) != nil {
		t.Fatal("single-shot rule fired twice")
	}
	if s.Seen(In, FrameStreamBase) != 3 || s.Seen(In, FrameEOS) != 1 || s.Seen(Out, FrameStreamBase) != 1 {
		t.Fatalf("frames seen: in block %d, in eos %d, out block %d; want 3, 1, 1",
			s.Seen(In, FrameStreamBase), s.Seen(In, FrameEOS), s.Seen(Out, FrameStreamBase))
	}
	var nilScript *Script
	if !nilScript.Fired() || nilScript.match(In, FrameAny) != nil {
		t.Fatal("nil script must be a transparent tap")
	}
}

func TestTrackerFiresAtExactV3Frame(t *testing.T) {
	// The inbound tracker must fire on the 2nd Block frame even when the
	// stream arrives one byte at a time — the prelude's tenant skipped like
	// a payload — and must leave the 1st frame (and everything before the
	// fatal header) delivered.
	s := NewScript(Rule{Dir: In, Frame: FrameStreamBase, N: 2, Action: ActClose})
	fc, _ := pipeConn(t, s)

	var stream []byte
	stream = append(stream, prelude(VersionSession, "tenant-a")...)
	stream = append(stream, wireFrame(FrameOpen, 1, []byte("open-payload"))...)
	stream = append(stream, wireFrame(FrameStreamBase, 1, make([]byte, 64))...)
	stream = append(stream, wireFrame(FrameStreamBaseEnd, 1, []byte{1, 2, 3})...)
	cut := len(stream)
	stream = append(stream, wireFrame(FrameStreamBase, 1, make([]byte, 32))...)
	stream = append(stream, wireFrame(FrameEOS, 1, nil)...)

	var ferr error
	fed := 0
	for i := range stream {
		if ferr = fc.rt.feed(stream[i : i+1]); ferr != nil {
			break
		}
		fed++
	}
	if ferr == nil {
		t.Fatal("rule never fired")
	}
	if !errors.Is(ferr, errInjected) {
		t.Fatalf("feed returned %v, want the injected fault", ferr)
	}
	// The fatal byte is the last byte of the 2nd Block frame's header.
	if want := cut + 9 - 1; fed != want {
		t.Fatalf("fault fired after %d bytes, want %d (2nd block header)", fed, want)
	}
	if !s.Fired() {
		t.Fatal("script not marked fired")
	}
	select {
	case <-fc.closed:
	default:
		t.Fatal("ActClose did not close the connection")
	}
}

func TestTrackerPeerHeaders(t *testing.T) {
	// Peer links frame with the session header at job 0; the tracker must
	// follow them across the head and every block.
	s := NewScript(Rule{Dir: In, Frame: FramePeerBlock, N: 3, Action: ActClose})
	fc, _ := pipeConn(t, s)
	var stream []byte
	stream = append(stream, prelude(VersionPeer, "")...)
	stream = append(stream, wireFrame(FramePeerHead, 0, make([]byte, 20))...)
	for i := 0; i < 3; i++ {
		stream = append(stream, wireFrame(FramePeerBlock, 0, make([]byte, 8*7))...)
	}
	var ferr error
	fed := 0
	for i := range stream {
		fed++
		if ferr = fc.rt.feed(stream[i : i+1]); ferr != nil {
			break
		}
	}
	if ferr == nil || !s.Fired() {
		t.Fatalf("peer rule did not fire (err %v)", ferr)
	}
	// The fatal byte is the last byte of the 3rd block's header.
	if want := len(stream) - 8*7; fed != want {
		t.Fatalf("fault fired after %d bytes, want %d (3rd block header)", fed, want)
	}
}

func TestTrackerOpaqueOnUnknownMagic(t *testing.T) {
	s := NewScript(Rule{Dir: In, Frame: FrameAny, Action: ActClose})
	fc, _ := pipeConn(t, s)
	junk := append([]byte("NOPE\x00\x00"), make([]byte, 256)...)
	if err := fc.rt.feed(junk); err != nil {
		t.Fatalf("opaque traffic faulted: %v", err)
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
	s := NewScript(Rule{Dir: Out, Frame: FrameReply, N: 2, Action: ActClose})
	fc, _ := pipeConn(t, s)
	if err := fc.rt.feed(prelude(VersionSession, "")); err != nil {
		t.Fatal(err)
	}
	var out []byte
	out = append(out, wireFrame(FrameReply, 1, make([]byte, 40))...)
	out = append(out, wireFrame(FrameReply, 1, make([]byte, 10))...)
	var ferr error
	for i := range out {
		if ferr = fc.wt.feed(out[i : i+1]); ferr != nil {
			break
		}
	}
	if ferr == nil || !s.Fired() {
		t.Fatalf("outbound rule did not fire (err %v)", ferr)
	}
}

func TestStallReleasedByClose(t *testing.T) {
	// ActStall wedges the matching read until the connection is closed —
	// and Close must win even while the stall holds the read path.
	s := NewScript(Rule{Dir: In, Frame: FrameOpen, Action: ActStall})
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
		_, _ = peer.Write(prelude(VersionSession, ""))
		_, _ = peer.Write(wireFrame(FrameOpen, 1, []byte("job")))
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

// TestHookLetsTrafficContinue pins where a hook runs: an inbound frame's hook
// has returned before Read delivers the frame, an outbound one's runs after
// the peer has the written bytes, and the traffic flows on either way.
func TestHookLetsTrafficContinue(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	outHook := make(chan bool, 1) // whether the peer had the frame when the hook ran
	received := make(chan struct{})
	s := NewScript(
		Rule{Dir: In, Frame: FrameStreamBase, Action: ActHook,
			Fn: func() { close(entered); <-release }},
		Rule{Dir: Out, Frame: FrameReply, Action: ActHook, Fn: func() {
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
	stream = append(stream, prelude(VersionSession, "")...)
	stream = append(stream, wireFrame(FrameStreamBase, 1, make([]byte, 16))...)
	stream = append(stream, wireFrame(FrameEOS, 1, nil)...)
	go func() { _, _ = peer.Write(stream) }()

	type result struct {
		n   int
		err error
	}
	got := make(chan result, 1)
	go func() {
		n, err := fc.Read(make([]byte, 512))
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

	reply := wireFrame(FrameReply, 1, make([]byte, 24))
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
	s := NewScript(Rule{Dir: In, Frame: FrameEOS, Action: ActClose})
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
	head = append(head, prelude(VersionSession, "")...)
	head = append(head, wireFrame(FrameOpen, 7, make([]byte, 100))...)
	if _, err := c.Write(head); err != nil {
		t.Fatalf("pre-fault write: %v", err)
	}
	// The EOS ships separately so the fatal frame cannot be coalesced into
	// the healthy chunk (a fired rule suppresses its whole chunk).
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Write(wireFrame(FrameEOS, 7, nil)); err != nil {
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
