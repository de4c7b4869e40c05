package netexec

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/stats"
	"ewh/internal/tiling"
	"ewh/internal/wire"
)

var model = cost.Model{Wi: 1, Wo: 0.2}

func randKeys(n int, domain int64, seed uint64) []join.Key {
	r := stats.NewRNG(seed)
	out := make([]join.Key, n)
	for i := range out {
		out[i] = r.Int64n(domain)
	}
	return out
}

func TestSessionTooFewWorkers(t *testing.T) {
	plan, err := core.PlanCI(core.Options{J: 8, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startWorkerSet(t, 2)
	sess := dialSession(t, addrs)
	_, err = exec.RunOver(sess, nil, nil, join.Equi{}, plan.Scheme, model, exec.Config{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "session has 2") {
		t.Fatalf("scheme wider than the session: got %v", err)
	}
}

func TestSessionUnsupportedCondition(t *testing.T) {
	plan, err := core.PlanCI(core.Options{J: 1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startWorkerSet(t, 1)
	sess := dialSession(t, addrs)
	_, err = exec.RunOver(sess, []join.Key{1}, []join.Key{1}, badCond{}, plan.Scheme, model, exec.Config{Seed: 1})
	if err == nil {
		t.Fatal("unspecable condition accepted")
	}
}

type badCond struct{}

func (badCond) Matches(a, b join.Key) bool               { return a == b }
func (badCond) JoinableRange(a join.Key) (x, y join.Key) { return a, a }
func (badCond) String() string                           { return "bad" }

func TestSpecRoundTrip(t *testing.T) {
	conds := []join.Condition{
		join.NewBand(0), join.NewBand(7), join.Equi{},
		join.Inequality{Op: join.Less}, join.Inequality{Op: join.GreaterEq},
	}
	for _, c := range conds {
		spec, err := join.SpecOf(c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		back, err := spec.Condition()
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		for a := join.Key(-20); a <= 20; a += 3 {
			for b := join.Key(-20); b <= 20; b += 3 {
				if c.Matches(a, b) != back.Matches(a, b) {
					t.Fatalf("%v: round-tripped condition disagrees at (%d,%d)", c, a, b)
				}
			}
		}
	}
	if _, err := join.SpecOf(badCond{}); err == nil {
		t.Error("foreign condition specced")
	}
	if _, err := (join.Spec{Kind: "nope"}).Condition(); err == nil {
		t.Error("bad spec kind accepted")
	}
}

func TestSessionSkewedCSIO(t *testing.T) {
	r := stats.NewRNG(8)
	z := stats.NewZipf(600, 0.9)
	r1 := make([]join.Key, 2000)
	r2 := make([]join.Key, 2000)
	for i := range r1 {
		r1[i] = z.Draw(r)
		r2[i] = z.Draw(r)
	}
	cond := join.NewBand(1)
	plan, err := core.PlanCSIO(r1, r2, cond, core.Options{J: 6, Model: model, Seed: 9, DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startWorkerSet(t, plan.Scheme.Workers())
	sess := dialSession(t, addrs)
	res, err := exec.RunOver(sess, r1, r2, cond, plan.Scheme, model, exec.Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := localjoin.NestedLoopCount(r1, r2, cond); res.Output != want {
		t.Fatalf("output %d, want %d", res.Output, want)
	}
}

// dialRaw opens a connection and writes raw opening bytes — the entry point
// for everything a worker must survive before (or instead of) a prelude.
func dialRaw(t *testing.T, addr string, opening []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := conn.Write(opening); err != nil {
		t.Fatal(err)
	}
	return conn
}

// expectClosedSilently asserts the worker hangs up on conn without having
// written a single byte (a close with our bytes still unread is a reset),
// within the prelude's bound and a margin.
func expectClosedSilently(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(preludeTimeout + 2*time.Second))
	var b [1]byte
	n, err := conn.Read(b[:])
	switch {
	case n != 0:
		t.Fatalf("worker answered a non-prelude connection: read %d bytes", n)
	case err != io.EOF && !errors.Is(err, syscall.ECONNRESET):
		t.Fatalf("worker kept a non-prelude connection open: %v", err)
	}
}

func TestGarbagePreludeClosedSilently(t *testing.T) {
	// Bytes that are not the prelude used to fall through to a gob decoder;
	// now the connection closes with no reply and no job accounting, as does
	// a prelude of a version the worker does not speak. A hangUp row's sender
	// stops mid-prelude and hangs up; a "stall" row's stops and stays
	// connected, and the worker's prelude deadline, not Timeouts.IO (unset
	// here), closes it.
	ws, addrs := startWorkerSet(t, 1)
	var hello bytes.Buffer // a version-6 session's tenant declaration, frame type 23
	if err := writeEndFrame(&hello, 23, 0, []byte(strings.Repeat("acme", 8))); err != nil {
		t.Fatal(err)
	}
	tenantCut := wire.Prelude(wire.Version, "acme")
	head := func(version uint16) []byte { return wire.Prelude(version, "")[:wire.PreludeLen] } // no tenant length
	rows := []struct {
		name    string
		opening []byte
		hangUp  bool
	}{
		{"wrong magic", []byte("GET / HTTP/1.1\r\n\r\n"), false},
		{"gob-like", []byte{0x1f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x09, 'h', 'a', 'n', 'd'}, false},
		{"short magic then EOF", wire.Magic[:3], true},
		{"short magic then stall", wire.Magic[:3], false},
		{"magic and half a version then EOF", head(wire.Version)[:wire.PreludeLen-1], true},
		{"unknown version", head(wire.Version + 7), false},
		// The mesh's job-less header ran under version 4: such a link is
		// closed at its prelude, never read past it and misframed. Its head
		// frame was type 30, 16 bytes long.
		{"retired mesh version 4", append(head(4),
			30, 16, 0, 0, 0), false},
		// Version 5 meshes sent no tenant: such a link is closed at its
		// prelude, its first header never read as one.
		{"retired mesh version 5", append(head(5),
			30, 0, 0, 0, 0, 16, 0, 0, 0), false},
		// Version 6 was the mesh a contribution sub-job replaced: a link
		// opening with its prelude and a well-formed head frame is closed at
		// the prelude, the head never read.
		{"retired mesh version 6", append(wire.Prelude(6, ""), append([]byte{30, 0, 0, 0, 0, 16, 0, 0, 0},
			make([]byte, 16)...)...), false},
		// Version 3 sessions opened jobs without Pairs and shipped a pairs
		// job's relations as heads and blocks: served, such a coordinator
		// would have its pairs jobs counted, their pairs never sent.
		{"retired session version 3", head(3), false},
		// Version 6 sessions declared their tenant in a HELLO frame: such a
		// link is closed at its prelude.
		{"retired session version 6 and a HELLO",
			append(head(6), hello.Bytes()...), false},
		// Version 7 sessions carried their control frames as gob: such a
		// link is closed at its prelude, even its first frame a valid ABORT.
		{"retired session version 7", append(wire.Prelude(7, ""), wire.Abort, 1, 0, 0, 0, 0, 0, 0, 0), false},
		// Version 8 sessions' REPLY carried one duration where a stage record
		// now is: such a link is closed at its prelude, a valid ABORT unread.
		{"retired session version 8", append(wire.Prelude(8, ""), wire.Abort, 1, 0, 0, 0, 0, 0, 0, 0), false},
		// Version 9 sessions cancelled a pipeline by transfer token in frame
		// 20: such a link is closed at its prelude, a valid ABORT unread.
		{"retired session version 9", append(wire.Prelude(9, ""), wire.Abort, 1, 0, 0, 0, 0, 0, 0, 0), false},
		{"tenant shorter than its length then EOF", tenantCut[:len(tenantCut)-2], true},
		{"tenant shorter than its length then stall", tenantCut[:len(tenantCut)-2], false},
	}
	// Every row connects before any is checked, so the stalls run out the
	// prelude's deadline together.
	conns := make([]net.Conn, len(rows))
	for i, tc := range rows {
		conns[i] = dialRaw(t, addrs[0], tc.opening)
		if tc.hangUp {
			if err := conns[i].(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, tc := range rows {
		t.Run(tc.name, func(t *testing.T) { expectClosedSilently(t, conns[i]) })
	}
	assertNoJobsBegun(t, ws[0])
	// The worker still serves a well-formed session afterwards.
	sess := dialSession(t, addrs)
	r1 := randKeys(200, 100, 64)
	if _, err := exec.RunOver(sess, r1, r1, join.Equi{}, partition.NewCI(1), model, exec.Config{Seed: 65}); err != nil {
		t.Fatal(err)
	}
}

// TestControlFrameBound pins maxControlPayload from both ends of both read
// loops. A control frame's payload is buffered whole before it decodes, so a
// header declaring more is refused before anything is allocated for it —
// connection-fatal on the worker (which used to allocate the declared 128 MiB
// and sit waiting for it) and on the coordinator — while the largest plan the
// widest fleet produces passes, and the writer refuses to frame what the reader
// would not take.
func TestControlFrameBound(t *testing.T) {
	const declared = 1 << 27 // under maxDataPayload: the header reader admits it
	t.Run("worker", func(t *testing.T) {
		ws, addrs := startWorkerSet(t, 1)
		bw, conn := dialV3(t, addrs[0], "")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := errors.Join(writeFrameHeader(bw, wire.Plan2, 0, declared), bw.Flush()); err != nil {
			t.Fatal(err)
		}
		expectClosedSilently(t, conn)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= declared/2 {
			t.Errorf("a 9-byte header made the process allocate %d bytes", grew)
		}
		assertNoJobsBegun(t, ws[0])
	})
	t.Run("stalled headers", func(t *testing.T) {
		// Every control frame a worker reads, each declaring the largest
		// payload the bound admits and then sending nothing: the worker
		// refuses an OPEN that long unread and buffers what arrived of a
		// PLAN2, not what was declared (it used to allocate the whole 32 MiB
		// per header up front).
		_, addrs := startWorkerSet(t, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		types := []byte{wire.Open, wire.Plan2}
		for _, typ := range types {
			bw, _ := dialV3(t, addrs[0], "")
			if err := errors.Join(writeFrameHeader(bw, typ, 1, maxControlPayload), bw.Flush()); err != nil {
				t.Fatal(err)
			}
		}
		const bound = 16 << 20 // the two headers declare 64 MiB
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= bound {
				t.Fatalf("%d stalled control headers made the process allocate %d bytes", len(types), grew)
			}
		}
	})
	// A control record's every refusal is connection-fatal and ends only its
	// own connection: each row is a complete record and trailing bytes, or a
	// record the decoder refuses.
	spec, err := join.SpecOf(join.Equi{})
	if err != nil {
		t.Fatal(err)
	}
	trailing := func(typ byte, job uint32, rec ctlRecord, pad int) func(bw *bufio.Writer) error {
		return func(bw *bufio.Writer) error {
			b := append(rec.append(nil), make([]byte, pad)...)
			return errors.Join(writeFrameHeader(bw, typ, job, len(b)), writeBytes(bw, b))
		}
	}
	refused := func(t *testing.T, rows map[string]func(bw *bufio.Writer) error) {
		_, addrs := startWorkerSet(t, 1)
		other := dialSession(t, addrs)
		for name, frames := range rows {
			t.Run(name, func(t *testing.T) {
				bw, conn := dialV3(t, addrs[0], "")
				if err := errors.Join(frames(bw), bw.Flush()); err != nil {
					t.Fatal(err)
				}
				expectClosedSilently(t, conn)
			})
		}
		r1 := randKeys(200, 100, 66)
		for _, sess := range []*Session{other, dialSession(t, addrs)} {
			if _, err := exec.RunOver(sess, r1, r1, join.Equi{}, partition.NewCI(1), model, exec.Config{Seed: 67}); err != nil {
				t.Fatal(err)
			}
		}
	}
	count := &open{Kind: kindCount, Cond: spec}
	plan := &open{Kind: kindPlan, Cond: spec, Token: 1}
	t.Run("open over its bound", func(t *testing.T) {
		// An OPEN (a count job's, or a plan job's carrying the statistics
		// request the retired PLAN frame did) longer than any real one is
		// refused unread.
		refused(t, map[string]func(bw *bufio.Writer) error{
			"OPENJOB": trailing(wire.Open, 1, count, maxOpenPayload),
			"PLAN":    trailing(wire.Open, 1, plan, maxOpenPayload),
		})
	})
	t.Run("strict records", func(t *testing.T) {
		// Within its bound, a record must be exactly itself: no trailing
		// byte, no unknown kind, no field cut short.
		kind5 := count.append(nil)
		kind5[0] = numKinds
		rows := map[string]func(bw *bufio.Writer) error{
			"OPEN and a trailing byte":  trailing(wire.Open, 1, count, 1),
			"PLAN2 and a trailing byte": trailing(wire.Plan2, 1, &plan2{Self: -1}, 1),
			"OPEN naming an unknown kind": func(bw *bufio.Writer) error {
				return errors.Join(writeFrameHeader(bw, wire.Open, 1, len(kind5)), writeBytes(bw, kind5))
			},
			"truncated OPEN": func(bw *bufio.Writer) error {
				b := count.append(nil)
				return errors.Join(writeFrameHeader(bw, wire.Open, 1, len(b)-1), writeBytes(bw, b[:len(b)-1]))
			},
		}
		refused(t, rows)
	})
	t.Run("coordinator", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() { // a worker that answers the prelude with one oversized REPLY
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			_ = writeFrameHeader(conn, wire.Reply, 1, declared)
			_, _ = io.Copy(io.Discard, conn) // until the session hangs up
		}()
		sess := dialSession(t, []string{ln.Addr().String()})
		waitFor(t, "the session to fail the connection", func() bool {
			return sess.conns[0].failedErr() != nil
		})
		if err := sess.conns[0].failedErr(); !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("connection failed with %v, want the control-frame bound", err)
		}
	})
	t.Run("maximal legitimate frames pass", func(t *testing.T) {
		regions := make([]tiling.Region, maxPeerSenders)
		for i := range regions {
			regions[i] = tiling.Region{RowLo: join.Key(i), RowHi: join.Key(i + 1), ColLo: join.Key(i), ColHi: join.Key(i + 1)}
		}
		plan, err := planio.Encode(&planio.Artifact{Scheme: partition.NewRegionScheme("widest", regions)})
		if err != nil {
			t.Fatal(err)
		}
		ps := plan2{Plan: plan, Peers: make([]string, maxPeerSenders)}
		for i := range ps.Peers {
			ps.Peers[i] = "[ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff%interface0]:65535"
		}
		var b bytes.Buffer
		if err := writeCtl(&b, wire.Plan2, 1, &ps); err != nil {
			t.Fatal(err)
		}
		_, _, n, err := readFrameHeader(&b)
		if err != nil || n > maxControlPayload/16 {
			t.Fatalf("PLAN2: %d-byte payload (err %v), want far inside the %d bound", n, err, maxControlPayload)
		}
		var got plan2
		if err := readCtl(&b, n, maxControlPayload, &got); err != nil || len(got.Peers) != maxPeerSenders {
			t.Fatalf("PLAN2 decoded %d peers (err %v), want %d", len(got.Peers), err, maxPeerSenders)
		}
		b.Reset()
		err = writeCtl(&b, wire.Plan2, 1, &plan2{Plan: make([]byte, maxControlPayload)})
		if err == nil || b.Len() != 0 {
			t.Fatalf("an oversized plan framed %d bytes (err %v), want a refusal at the frame boundary", b.Len(), err)
		}
	})
}

// assertNoJobsBegun checks that nothing the test threw at w reached beginJob
// (every begun job ends, and endJob counts it): the refused connections are
// gone and no job completed.
func assertNoJobsBegun(t *testing.T, w *Worker) {
	t.Helper()
	waitFor(t, "refused connections to be dropped", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.conns) == 0
	})
	if n := w.jobsDone.Load(); n != 0 {
		t.Fatalf("%d jobs begun by connections that never opened one", n)
	}
}

func TestShutdownSparesConnectionMidPrelude(t *testing.T) {
	// A connection that has been accepted but has not finished its prelude
	// might be a peer's, about to open a contribution an in-flight job
	// depends on, so the graceful drain's idle sweep must not close it —
	// only the final post-drain sweep may.
	ws, addrs := startWorkerSet(t, 1)
	w := ws[0]
	dialSession(t, addrs) // an idle, identified session: the sweep's prey
	prelude := wire.Prelude(wire.Version, "")
	half := dialRaw(t, addrs[0], prelude[:3])
	// Hold a job open so Shutdown parks in its drain between the two sweeps.
	bw, _ := dialV3(t, addrs[0], "")
	sendOpenJob(t, bw, 1, kindCount, 0)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two identified sessions, one with a job, and one unknown", func() bool {
		if w.Snapshot().Holdings.Jobs != 1 {
			return false
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		sessions := 0
		for cs := range w.conns {
			if cs.session {
				sessions++
			}
		}
		return len(w.conns) == 3 && sessions == 2
	})
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- w.Shutdown(ctx)
	}()
	waitFor(t, "the idle session to be swept", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.conns) == 2
	})
	// Mid-drain: the half-prelude connection is still open — finishing the
	// prelude as a session now gets it served, not refused.
	if _, err := half.Write(prelude[3:]); err != nil {
		t.Fatalf("mid-prelude connection was closed by the drain sweep: %v", err)
	}
	_ = half.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var b [1]byte
	if _, err := half.Read(b[:]); err == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("mid-prelude connection not left open during the drain: %v", err)
	}
	// Release the drain.
	if err := writeFrameHeader(bw, wire.Abort, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	expectClosedSilently(t, half)
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSessionDeclaredCountEnforced(t *testing.T) {
	_, addrs := startWorkerSet(t, 1)
	bw, conn := dialV3(t, addrs[0], "")
	for id, c := range []struct {
		name, want string
		frames     func(id uint32) error
	}{
		{"fewer tuples than the end declares", "ends a run of 2 tuples, declares 5", func(id uint32) error {
			return errors.Join(writeStreamBaseKeys(bw, id, 0, []join.Key{1, 2}), writeStreamBaseEnd(bw, id, 0, 5))
		}},
		{"more tuples than the end declares", "ends a run of 3 tuples, declares 1", func(id uint32) error {
			return errors.Join(writeStreamBaseKeys(bw, id, 0, []join.Key{1, 2, 3}), writeStreamBaseEnd(bw, id, 0, 1))
		}},
		{"EOS before the run ended", "relation 1's run never ended", func(id uint32) error {
			return writeStreamBaseKeys(bw, id, 0, []join.Key{1, 2})
		}},
	} {
		// Each case is the next job on the same connection.
		id := uint32(id + 1)
		sendOpenJob(t, bw, id, kindPairs, 0)
		err := errors.Join(c.frames(id), writeRel(bw, id, 2, nil), writeFrameHeader(bw, wire.EOS, id, 0), bw.Flush())
		if err != nil {
			t.Fatal(err)
		}
		if msg := readV3ErrMetrics(t, conn, id); !strings.Contains(msg, c.want) {
			t.Fatalf("%s: replied %q, want %q", c.name, msg, c.want)
		}
	}
}

func TestSessionUnknownRelationRejected(t *testing.T) {
	// A pairs job has two relations: the base run and window 0. Window 1 is
	// a plan job's re-key column, and window 2 names no relation at all.
	_, addrs := startWorkerSet(t, 1)
	bw, conn := dialV3(t, addrs[0], "")
	sendOpenJob(t, bw, 1, kindPairs, 0)
	err := errors.Join(writeRel(bw, 1, 1, []join.Key{9}), writeStreamWinKeys(bw, 1, 2, 0, []join.Key{9}),
		writeFrameHeader(bw, wire.EOS, 1, 0), bw.Flush())
	if err != nil {
		t.Fatal(err)
	}
	if msg := readV3ErrMetrics(t, conn, 1); !strings.Contains(msg, "window 2, past epoch 0, window 0") {
		t.Fatalf("window 2 accepted: %q", msg)
	}
}

// TestSessionMultiBlockRelation pins a pairs job whose relations each span
// several key frames: the join goroutine keeps each run's chunks in arrival
// order, so the PAIRS stream is exec.JoinPairs over the concatenated blocks.
// A multi-frame run is copied into one buffer, charged while both copies
// exist: a budget that admits the frames but not that copy fails the job
// with ErrQuota, and nothing stays charged.
func TestSessionMultiBlockRelation(t *testing.T) {
	leakCheck(t)
	r1 := randKeys(1000, 400, 60)
	r2 := randKeys(1000, 400, 61)
	cond := join.NewBand(1)
	spec, err := join.SpecOf(cond)
	if err != nil {
		t.Fatal(err)
	}
	var want []exec.PairIdx
	wantOut := exec.JoinPairs(r1, r2, cond, func(c []exec.PairIdx) { want = append(want, c...) })
	const frames = 8 * (1000 + 1000)
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"unbounded", 0},
		{"budget for the frames, not the copy", frames + 8*500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws, addrs := startWorkers(t, func(w *Worker) { w.ledger.budget = tc.budget }, nil)
			w := ws[0]
			bw, conn := dialV3(t, addrs[0], "")
			err := errors.Join(writeCtl(bw, wire.Open, 1, &open{Kind: kindPairs, Cond: spec}),
				writeStreamBaseKeys(bw, 1, 0, r1[:300]), writeStreamBaseKeys(bw, 1, 0, r1[300:]),
				writeStreamBaseEnd(bw, 1, 0, len(r1)),
				writeStreamWinKeys(bw, 1, 0, 0, r2[:450]), writeStreamWinKeys(bw, 1, 0, 0, r2[450:]),
				writeStreamWinEnd(bw, 1, 0, 0, len(r2)),
				writeFrameHeader(bw, wire.EOS, 1, 0), bw.Flush())
			if err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			br := bufio.NewReader(conn)
			var got []exec.PairIdx
			var m reply
			for {
				typ, job, n, err := readFrameHeader(br)
				if err != nil || job != 1 {
					t.Fatalf("reply frame %d for job %d: %v", typ, job, err)
				}
				if typ == wire.Reply {
					if err := readCtl(br, n, maxControlPayload, &m); err != nil {
						t.Fatal(err)
					}
					break
				}
				pairs, err := readPairsPayload(br, n)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, pairs...)
			}
			if tc.budget == 0 {
				if m.Err != "" || m.Output != wantOut || !slices.Equal(got, want) {
					t.Fatalf("replied %d pairs and %+v; want exec.JoinPairs' %d pairs", len(got), m, wantOut)
				}
			} else if m.Code != codeQuota || len(got) != 0 {
				t.Fatalf("replied %d pairs and %+v, want a quota rejection", len(got), m)
			}
			workersIdle(t, w)
		})
	}
}

func TestWorkerCloseStopsServe(t *testing.T) {
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after Close, want nil", err)
	}
}
