package netexec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
)

// TestDeclaredRunsAllocateOnArrival is the declare-then-stall adversary
// against the worker's ledger. Over several rounds, one connection per kind of
// run — a pairs job's flat relation, a count job's base, a stream's base and
// window, a peer contribution — declares the largest run its head admits (a
// contribution of MaxRelationTuples: 8 GiB, were a head to size a buffer; a
// base or window run has no head), then opens a 1 MiB key frame and stalls
// after its sub-header. A head allocates nothing; each frame is charged before
// its buffer exists, so the worker holds at most its budget however much was
// declared, and the frames past the budget are refused. A job needing the budget fails with ErrQuota meanwhile; once the
// stalled connections hang up the ledger is back at zero and the same job
// runs.
func TestDeclaredRunsAllocateOnArrival(t *testing.T) {
	leakCheck(t)
	const (
		budget     = 4 << 20
		stallKeys  = 1 << 17 // 1 MiB per stalled frame: four fill the budget
		rounds     = 3
		perConnMax = 256 << 10 // a connection's own buffers: reader, writer, state
	)
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.ledger.budget = budget
	go func() { _ = w.Serve() }()
	t.Cleanup(func() { _ = w.Close() })
	spec, err := join.SpecOf(join.Equi{})
	if err != nil {
		t.Fatal(err)
	}

	// stall opens a key frame of stallKeys keys under sub (whose last four
	// bytes take the count) and sends nothing past the sub-header.
	stall := func(bw *bufio.Writer, typ byte, job uint32, sub []byte) error {
		binary.LittleEndian.PutUint32(sub[len(sub)-4:], stallKeys)
		err := writeV3FrameHeader(bw, typ, job, len(sub)+8*stallKeys)
		if err == nil {
			_, err = bw.Write(sub)
		}
		return err
	}
	kinds := []struct {
		name string
		send func(bw *bufio.Writer, round int) error
	}{
		{"flat relation", func(bw *bufio.Writer, _ int) error {
			return errors.Join(writeCtl(bw, frameV3Open, 1, &open{Kind: kindPairs, Cond: spec}),
				stall(bw, frameV3StreamBase, 1, make([]byte, streamBaseHdrLen)))
		}},
		{"count job base", func(bw *bufio.Writer, _ int) error {
			return errors.Join(writeCtl(bw, frameV3Open, 1, &open{Kind: kindCount, Cond: spec}),
				stall(bw, frameV3StreamBase, 1, make([]byte, streamBaseHdrLen)))
		}},
		{"stream base", func(bw *bufio.Writer, _ int) error {
			return errors.Join(writeCtl(bw, frameV3Open, 1, &open{Kind: kindStream, Cond: spec}),
				stall(bw, frameV3StreamBase, 1, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
		}},
		{"stream window", func(bw *bufio.Writer, _ int) error {
			return errors.Join(writeCtl(bw, frameV3Open, 1, &open{Kind: kindStream, Cond: spec}),
				stall(bw, frameV3StreamWin, 1, make([]byte, streamWinHdrLen)))
		}},
		{"peer contribution", func(bw *bufio.Writer, round int) error {
			var h [peerHeadLen]byte
			binary.LittleEndian.PutUint64(h[:], uint64(round+1))
			binary.LittleEndian.PutUint32(h[12:], MaxRelationTuples)
			return errors.Join(writeV3FrameHeader(bw, framePeerHead, 0, peerHeadLen), writeBytes(bw, h[:]),
				stall(bw, framePeerBlock, 0, h[:]))
		}},
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var stalled []net.Conn
	for round := 0; round < rounds; round++ {
		for _, k := range kinds {
			conn, err := net.Dial("tcp", w.Addr())
			if err != nil {
				t.Fatal(err)
			}
			stalled = append(stalled, conn)
			version := uint16(protoVersionSession)
			if k.name == "peer contribution" {
				version = protoVersionPeer
			}
			bw := bufio.NewWriter(conn)
			if err := errors.Join(writeBytes(bw, prelude(version, "")), k.send(bw, round), bw.Flush()); err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
		}
	}
	defer func() {
		for _, c := range stalled {
			_ = c.Close()
		}
	}()
	waitFor(t, "the stalled frames to fill the budget", func() bool { return w.ledger.heldBytes() == budget })
	time.Sleep(100 * time.Millisecond) // the frames past the budget meet a full ledger
	runtime.ReadMemStats(&after)
	declared := int64(rounds*len(kinds)) * (8*MaxRelationTuples + 8*stallKeys)
	bound := uint64(budget + len(stalled)*perConnMax + 4<<20)
	grew := after.TotalAlloc - before.TotalAlloc
	if grew > bound {
		t.Fatalf("%d connections declaring %d bytes made the process allocate %d bytes, bound %d",
			len(stalled), declared, grew, bound)
	}
	t.Logf("%d connections declared %d bytes; the process allocated %d", len(stalled), declared, grew)
	if held := w.ledger.heldBytes(); held != budget {
		t.Fatalf("ledger holds %d bytes, budget %d", held, budget)
	}

	// A job that needs the budget the stalls hold is refused, typed.
	sess := dialSession(t, []string{w.Addr()})
	keys := randKeys(2000, 500, 80)
	run := func() (*exec.Result, error) {
		return exec.RunOver(sess, keys, keys, join.Equi{}, partition.NewCI(1), model, exec.Config{Seed: 81})
	}
	if _, err := run(); !errors.Is(err, ErrQuota) {
		t.Fatalf("job past the worker's budget: %v, want ErrQuota", err)
	}

	for _, c := range stalled {
		_ = c.Close()
	}
	waitFor(t, "the hung-up connections' charges to be credited", func() bool {
		return w.ledger.heldBytes() == 0 && inFlight(w) == 0
	})
	res, err := run()
	if err != nil {
		t.Fatalf("job after the stalls hung up: %v", err)
	}
	if want := localjoin.NestedLoopCount(keys, keys, join.Equi{}); res.Output != want {
		t.Fatalf("output %d, want %d", res.Output, want)
	}
	waitFor(t, "the job's charges to be credited", func() bool { return w.ledger.heldBytes() == 0 })
}

// TestPeerContributionPastBudgetIsTyped pins the mesh's account end to end:
// a peer-fed job's resident side takes most of the worker's budget, so the
// contribution its transfer waits for cannot be charged. The transfer fails
// with a typed quota rejection, the job's reply carries codeQuota, and
// nothing stays charged.
func TestPeerContributionPastBudgetIsTyped(t *testing.T) {
	leakCheck(t)
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.ledger.budget = 40 // the 32-byte resident side, not the 32-byte contribution
	go func() { _ = w.Serve() }()
	t.Cleanup(func() { _ = w.Close() })
	k := feedTableKinds(t, w)[2]
	bw, conn := dialV3(t, w.Addr(), "")
	err = errors.Join(k.open(bw), k.run(bw, buildSide, []join.Key{1, 2, 2, 3}),
		writeV3FrameHeader(bw, frameV3EOS, feedJob, 0), bw.Flush())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the resident side to be charged", func() bool { return w.ledger.heldBytes() == 32 })
	if err := w.deliverLocal(k.token, 0, []join.Key{2, 2, 3, 9}); rejectCode(err) != codeQuota {
		t.Fatalf("contribution past the budget: %v, want a quota rejection", err)
	}
	if m := awaitFeedMetrics(t, conn, bufio.NewReader(conn), feedJob); m.Code != codeQuota {
		t.Fatalf("the job replied %+v, want code %d", m, codeQuota)
	}
	waitFor(t, "the job's charges to be credited", func() bool { return w.ledger.heldBytes() == 0 })
}

// TestPeerBlocksDecodeSideBySide pins the mesh's one-chunk-per-block rule:
// each block of a contribution decodes into its own chunk outside the
// transfer's lock, so a block that lands on a second mesh connection while
// the first is still decoding commits beside it, and so does the first once
// its bytes arrive. A block stalled mid-decode when its connection hangs up
// fails the transfer, and its chunk's charge is credited with the rest.
func TestPeerBlocksDecodeSideBySide(t *testing.T) {
	leakCheck(t)
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = w.Serve() }()
	t.Cleanup(func() { _ = w.Close() })
	token := newPeerToken()
	// dial opens a mesh connection, sending the head of sender 0's 6-key
	// contribution when head.
	dial := func(head bool) (net.Conn, *bufio.Writer) {
		conn, err := net.Dial("tcp", w.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		bw := bufio.NewWriter(conn)
		err = writeBytes(bw, prelude(protoVersionPeer, ""))
		if head {
			var h [peerHeadLen]byte
			binary.LittleEndian.PutUint64(h[:], token)
			binary.LittleEndian.PutUint32(h[12:], 6)
			err = errors.Join(err, writeV3FrameHeader(bw, framePeerHead, 0, peerHeadLen), writeBytes(bw, h[:]))
		}
		if err = errors.Join(err, bw.Flush()); err != nil {
			t.Fatal(err)
		}
		return conn, bw
	}
	// block sends a 2-key block of which only the first sent bytes of keys
	// go out.
	block := func(bw *bufio.Writer, sent int) {
		var h [peerBlockHeaderLen]byte
		binary.LittleEndian.PutUint64(h[:], token)
		binary.LittleEndian.PutUint32(h[12:], 2)
		err := errors.Join(writeV3FrameHeader(bw, framePeerBlock, 0, peerBlockHeaderLen+16),
			writeBytes(bw, h[:]), writeBytes(bw, make([]byte, sent)), bw.Flush())
		if err != nil {
			t.Fatal(err)
		}
	}
	st := w.peerState(token)
	// joined waits until the contribution's admitted and joined keys and the
	// ledger read as given.
	joined := func(what string, pos, n int, held int64) {
		waitFor(t, what, func() bool {
			st.mu.Lock()
			defer st.mu.Unlock()
			c := st.contrib[0]
			return c != nil && c.pos == pos && c.n == n && w.ledger.heldBytes() == held
		})
	}

	_, first := dial(true)
	block(first, 8)
	joined("the first block to be decoding", 2, 0, 16)
	_, second := dial(false)
	block(second, 16)
	joined("the second block to commit beside it", 4, 2, 32)
	if err := errors.Join(writeBytes(first, make([]byte, 8)), first.Flush()); err != nil {
		t.Fatal(err)
	}
	joined("the first block to commit", 4, 4, 32)

	stalled, third := dial(false)
	block(third, 8)
	joined("the third block to be decoding", 6, 4, 48)
	_ = stalled.Close()
	waitFor(t, "the hang-up to fail the transfer", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.done && st.err != nil && strings.Contains(st.err.Error(), "died mid-block")
	})
	waitFor(t, "every chunk's charge to be credited", func() bool { return w.ledger.heldBytes() == 0 })
}

// TestHangUpTombstonesItsPlanTransfers pins what a coordinator's hang-up
// releases on the mesh side: a stage-1 plan job named its pipeline's
// transfer token, another worker's contribution reached this worker's
// transfer before any stage-2 open did, and then the session died — so no
// PLANCANCEL can come. The teardown tombstones the token: the contribution's
// bytes are credited and a later one buffers nothing.
func TestHangUpTombstonesItsPlanTransfers(t *testing.T) {
	ws, addrs := startWorkerSet(t, 1)
	w, token := ws[0], newPeerToken()
	bw, conn := dialV3(t, addrs[0], "")
	sendOpenJob(t, bw, 1, kindPlan, token)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the plan job to register", func() bool { return inFlight(w) == 1 })
	if err := w.deliverLocal(token, 1, []join.Key{1, 2}); err != nil {
		t.Fatal(err)
	}
	if held := w.ledger.heldBytes(); held != 16 {
		t.Fatalf("the contribution holds %d bytes, want 16", held)
	}
	_ = conn.Close()
	waitFor(t, "the hang-up to release the transfer", func() bool {
		return w.ledger.heldBytes() == 0 && inFlight(w) == 0
	})
	if err := w.deliverLocal(token, 2, []join.Key{3}); err == nil || w.ledger.heldBytes() != 0 {
		t.Fatalf("a contribution after the hang-up: %v, %d bytes held", err, w.ledger.heldBytes())
	}
}

func writeBytes(bw *bufio.Writer, b []byte) error {
	_, err := bw.Write(b)
	return err
}
