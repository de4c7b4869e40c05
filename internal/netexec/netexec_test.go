package netexec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
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
// written a single byte (a close with our bytes still unread is a reset).
func expectClosedSilently(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	n, err := conn.Read(b[:])
	if n != 0 || (err != io.EOF && !errors.Is(err, syscall.ECONNRESET)) {
		t.Fatalf("worker answered a non-prelude connection: read %d bytes, err %v", n, err)
	}
}

func TestGarbagePreludeClosedSilently(t *testing.T) {
	// Bytes that are not the prelude used to fall through to a gob decoder;
	// now the connection closes with no reply and no job accounting, as does
	// a prelude of a version the worker does not speak.
	ws, addrs := startWorkerSet(t, 1)
	ws[0].FailAfterJobs(1 << 30) // arms the completed-job counter
	for _, tc := range []struct {
		name    string
		opening []byte
	}{
		{"wrong magic", []byte("GET / HTTP/1.1\r\n\r\n")},
		{"gob-like", []byte{0x1f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x09, 'h', 'a', 'n', 'd'}},
		{"short magic then EOF", []byte("EWH")},
		{"magic and half a version then EOF", []byte("EWHB\x03")},
		{"unknown version", binary.LittleEndian.AppendUint16([]byte("EWHB"), protoVersionPeer+7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := dialRaw(t, addrs[0], tc.opening)
			if len(tc.opening) < len(protoMagic)+2 {
				if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
					t.Fatal(err)
				}
			}
			expectClosedSilently(t, conn)
		})
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
// widest mesh produces passes, and the writer refuses to frame what the reader
// would not take.
func TestControlFrameBound(t *testing.T) {
	const declared = 1 << 27 // under maxDataPayload: the header reader admits it
	t.Run("worker", func(t *testing.T) {
		ws, addrs := startWorkerSet(t, 1)
		ws[0].FailAfterJobs(1 << 30) // arms the completed-job counter
		bw, conn := dialV3(t, addrs[0])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := errors.Join(writeV3FrameHeader(bw, frameV3Hello, 0, declared), bw.Flush()); err != nil {
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
		// Every control frame a worker reads past the opens, each declaring
		// the largest payload the bound admits and then sending nothing: the
		// worker buffers what arrived, not what was declared (it used to
		// allocate the whole 32 MiB per header up front).
		_, addrs := startWorkerSet(t, 1)
		spec, err := join.SpecOf(join.Equi{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		types := []byte{frameV3Hello, frameV3Plan, frameV3Plan2, frameV3PlanCancel}
		for _, typ := range types {
			bw, _ := dialV3(t, addrs[0])
			if typ == frameV3Plan { // a PLAN is read only for an open job
				if err := writeV3GobFrame(bw, frameV3OpenJob, 1, jobOpen{Cond: spec}); err != nil {
					t.Fatal(err)
				}
			}
			if err := errors.Join(writeV3FrameHeader(bw, typ, 1, maxControlPayload), bw.Flush()); err != nil {
				t.Fatal(err)
			}
		}
		const bound = 16 << 20 // the four headers declare 128 MiB
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= bound {
				t.Fatalf("%d stalled control headers made the process allocate %d bytes", len(types), grew)
			}
		}
	})
	t.Run("open over its bound", func(t *testing.T) {
		// An open longer than any real one is refused unread, and it ends
		// only its own connection.
		_, addrs := startWorkerSet(t, 1)
		other := dialSession(t, addrs)
		bw, conn := dialV3(t, addrs[0])
		var b bytes.Buffer
		open := jobOpen{Cond: join.Spec{Kind: strings.Repeat("x", maxOpenPayload)}}
		if err := writeV3GobFrame(&b, frameV3OpenJob, 1, open); err != nil || b.Len() <= maxOpenPayload {
			t.Fatalf("the open frames %d bytes (err %v), want more than %d", b.Len(), err, maxOpenPayload)
		}
		if err := errors.Join(writeV3GobFrame(bw, frameV3OpenJob, 1, open), bw.Flush()); err != nil {
			t.Fatal(err)
		}
		expectClosedSilently(t, conn)
		r1 := randKeys(200, 100, 66)
		for _, sess := range []*Session{other, dialSession(t, addrs)} {
			if _, err := exec.RunOver(sess, r1, r1, join.Equi{}, partition.NewCI(1), model, exec.Config{Seed: 67}); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("coordinator", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() { // a worker that answers the prelude with one oversized METRICS
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			_ = writeV3FrameHeader(conn, frameV3Metrics, 1, declared)
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
		ps := planSpec{Plan: plan, Peers: make([]string, maxPeerSenders)}
		for i := range ps.Peers {
			ps.Peers[i] = "[ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff%interface0]:65535"
		}
		var b bytes.Buffer
		if err := writeV3GobFrame(&b, frameV3Plan2, 1, ps); err != nil {
			t.Fatal(err)
		}
		_, _, n, err := readV3FrameHeader(&b)
		if err != nil || n > maxControlPayload/16 {
			t.Fatalf("PLAN2: %d-byte payload (err %v), want far inside the %d bound", n, err, maxControlPayload)
		}
		if _, err := readControlPayload(&b, n); err != nil {
			t.Fatal(err)
		}
		b.Reset()
		err = writeV3GobFrame(&b, frameV3Plan2, 1, planSpec{Plan: make([]byte, maxControlPayload)})
		if err == nil || b.Len() != 0 {
			t.Fatalf("an oversized plan framed %d bytes (err %v), want a refusal at the frame boundary", b.Len(), err)
		}
	})
}

// assertNoJobsBegun checks that nothing the test threw at w reached beginJob
// (every begun job ends, and FailAfterJobs makes endJob count): the refused
// connections are gone and no job completed.
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
	// might be an inbound peer link an in-flight job depends on, so the
	// graceful drain's idle sweep must not close it — only the final
	// post-drain sweep may.
	ws, addrs := startWorkerSet(t, 1)
	w := ws[0]
	dialSession(t, addrs) // an idle, identified session: the sweep's prey
	half := dialRaw(t, addrs[0], []byte("EWH"))
	// Hold a job open so Shutdown parks in its drain between the two sweeps.
	bw, _ := dialV3(t, addrs[0])
	sendOpenJob(t, bw, 1)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two identified sessions, one with a job, and one unknown", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		sessions, active := 0, 0
		for cs := range w.conns {
			active += cs.active
			if cs.session {
				sessions++
			}
		}
		return len(w.conns) == 3 && sessions == 2 && active == 1
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
	// prelude as a peer link now gets it served, not refused.
	if _, err := half.Write([]byte{'B', protoVersionPeer, 0}); err != nil {
		t.Fatalf("mid-prelude connection was closed by the drain sweep: %v", err)
	}
	_ = half.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var b [1]byte
	if _, err := half.Read(b[:]); err == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("mid-prelude connection not left open during the drain: %v", err)
	}
	// Release the drain.
	if err := writeV3FrameHeader(bw, frameV3Abort, 1, 0); err != nil {
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

	// EOS before the declared tuples arrived.
	bw, conn := dialV3(t, addrs[0])
	sendOpenJob(t, bw, 1)
	if err := writeRelHead(bw, 1, 1, 5, false); err != nil {
		t.Fatal(err)
	}
	if err := writeRelHead(bw, 1, 2, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := writeV3FrameHeader(bw, frameV3EOS, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if msg := readV3ErrMetrics(t, conn, 1); !strings.Contains(msg, "declared") {
		t.Fatalf("truncated stream accepted: %q", msg)
	}

	// More tuples than declared; same connection, next job.
	sendOpenJob(t, bw, 2)
	if err := writeRelHead(bw, 2, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := writeKeyBlocksV3(bw, 2, 1, []join.Key{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := writeRelHead(bw, 2, 2, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := writeV3FrameHeader(bw, frameV3EOS, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if msg := readV3ErrMetrics(t, conn, 2); !strings.Contains(msg, "overflow") {
		t.Fatalf("overflowing block accepted: %q", msg)
	}
}

func TestSessionUnknownRelationRejected(t *testing.T) {
	_, addrs := startWorkerSet(t, 1)
	bw, conn := dialV3(t, addrs[0])
	sendOpenJob(t, bw, 1)
	if err := writeRelHead(bw, 1, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := writeKeyBlocksV3(bw, 1, relRekey+1, []join.Key{9}); err != nil {
		t.Fatal(err)
	}
	if err := writeV3FrameHeader(bw, frameV3EOS, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if msg := readV3ErrMetrics(t, conn, 1); !strings.Contains(msg, "unknown relation 4") {
		t.Fatalf("block for relation 4 accepted: %q", msg)
	}
}

func TestSessionMultiBlockRelation(t *testing.T) {
	// A relation larger than one block frame still reassembles exactly:
	// exercise the split path by writing two explicit blocks for R1.
	_, addrs := startWorkerSet(t, 1)
	bw, conn := dialV3(t, addrs[0])
	r1 := randKeys(1000, 400, 60)
	r2 := randKeys(1000, 400, 61)
	cond := join.NewBand(1)
	spec, err := join.SpecOf(cond)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeV3GobFrame(bw, frameV3OpenJob, 1, jobOpen{Cond: spec}); err != nil {
		t.Fatal(err)
	}
	if err := writeRelHead(bw, 1, 1, len(r1), false); err != nil {
		t.Fatal(err)
	}
	if err := writeKeyBlocksV3(bw, 1, 1, r1[:300]); err != nil {
		t.Fatal(err)
	}
	if err := writeKeyBlocksV3(bw, 1, 1, r1[300:]); err != nil {
		t.Fatal(err)
	}
	if err := writeRelHead(bw, 1, 2, len(r2), false); err != nil {
		t.Fatal(err)
	}
	if err := writeKeyBlocksV3(bw, 1, 2, r2); err != nil {
		t.Fatal(err)
	}
	if err := writeV3FrameHeader(bw, frameV3EOS, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	m := readV3Metrics(t, conn, 1)
	if m.Err != "" {
		t.Fatal(m.Err)
	}
	if want := localjoin.NestedLoopCount(r1, r2, cond); m.Output != want {
		t.Fatalf("output %d, want %d", m.Output, want)
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
