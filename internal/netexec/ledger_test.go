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
			return errors.Join(writeV3GobFrame(bw, frameV3OpenJob, 1, jobOpen{Cond: spec, Pairs: true}),
				stall(bw, frameV3StreamBase, 1, make([]byte, streamBaseHdrLen)))
		}},
		{"count job base", func(bw *bufio.Writer, _ int) error {
			return errors.Join(writeV3GobFrame(bw, frameV3OpenJob, 1, jobOpen{Cond: spec}),
				stall(bw, frameV3StreamBase, 1, make([]byte, streamBaseHdrLen)))
		}},
		{"stream base", func(bw *bufio.Writer, _ int) error {
			return errors.Join(writeV3GobFrame(bw, frameV3StreamOpen, 1, streamOpen{Cond: spec}),
				stall(bw, frameV3StreamBase, 1, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
		}},
		{"stream window", func(bw *bufio.Writer, _ int) error {
			return errors.Join(writeV3GobFrame(bw, frameV3StreamOpen, 1, streamOpen{Cond: spec}),
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
			var prelude [6]byte
			copy(prelude[:], protoMagic[:])
			binary.LittleEndian.PutUint16(prelude[4:], version)
			if err := errors.Join(writeBytes(bw, prelude[:]), k.send(bw, round), bw.Flush()); err != nil {
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
	bw, conn := dialV3(t, w.Addr())
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

// TestPeerBlockBesideOneInFlightFailsTransfer pins the one-decode rule a
// growing contribution needs: its buffer may move when it grows, so a block
// for a contribution whose last block is still decoding on another mesh
// connection fails the transfer instead of growing the buffer under that
// decode. Both hang-ups leave nothing charged.
func TestPeerBlockBesideOneInFlightFailsTransfer(t *testing.T) {
	leakCheck(t)
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = w.Serve() }()
	t.Cleanup(func() { _ = w.Close() })
	token := newPeerToken()
	// send dials a mesh connection and writes frames on it: the head of
	// sender 0's 4-key contribution when head, then a 2-key block of which
	// only the first sent bytes of keys go out.
	send := func(head bool, sent int) net.Conn {
		conn, err := net.Dial("tcp", w.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		bw := bufio.NewWriter(conn)
		var prelude [6]byte
		copy(prelude[:], protoMagic[:])
		binary.LittleEndian.PutUint16(prelude[4:], protoVersionPeer)
		var h [peerHeadLen]byte
		binary.LittleEndian.PutUint64(h[:], token)
		binary.LittleEndian.PutUint32(h[12:], 4)
		err = writeBytes(bw, prelude[:])
		if head {
			err = errors.Join(err, writeV3FrameHeader(bw, framePeerHead, 0, peerHeadLen), writeBytes(bw, h[:]))
		}
		binary.LittleEndian.PutUint32(h[12:], 2)
		err = errors.Join(err, writeV3FrameHeader(bw, framePeerBlock, 0, peerBlockHeaderLen+16),
			writeBytes(bw, h[:]), writeBytes(bw, make([]byte, sent)), bw.Flush())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	stalled := send(true, 8)
	st := w.peerState(token)
	waitFor(t, "the first block to be decoding", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.contrib[0] != nil && st.contrib[0].reading
	})
	send(false, 16)
	waitFor(t, "the second block to fail the transfer", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.done && st.err != nil && strings.Contains(st.err.Error(), "beside one in flight")
	})
	if held := w.ledger.heldBytes(); held != 16 {
		t.Fatalf("the decoding block holds %d bytes, want its 16", held)
	}
	_ = stalled.Close()
	waitFor(t, "the decoding block's buffer to be credited", func() bool { return w.ledger.heldBytes() == 0 })
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
	bw, conn := dialV3(t, addrs[0])
	sendOpenJob(t, bw, 1, false)
	err := errors.Join(writeV3GobFrame(bw, frameV3Plan, 1, planSpec{Token: token, Stats: exec.StatsSpec{Cap: 8, Buckets: 4}}),
		bw.Flush())
	if err != nil {
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

// TestGrowKeys pins the one allocation path of a declared run: a frame's
// growth doubles the buffer within the declared total, keeps the keys already
// filled, and charges exactly what the buffer grows by — so a run is always
// charged 8 bytes per key of its buffer — while a refused charge leaves the
// buffer as it was.
func TestGrowKeys(t *testing.T) {
	var charged int64
	charge := func(n int64) error { charged += n; return nil }
	var buf []join.Key
	for _, step := range []struct{ have, need, wantLen int }{
		{0, 3, 3},      // the first frame: exactly its keys
		{3, 5, 6},      // doubles
		{5, 7, 12},     // doubles
		{7, 40, 40},    // a frame past double: its keys
		{40, 41, 80},   // doubles
		{41, 100, 100}, // capped at the declared total
	} {
		var err error
		if buf, err = growKeys(buf, step.have, step.need, 100, charge); err != nil {
			t.Fatal(err)
		}
		if len(buf) != step.wantLen || charged != 8*int64(len(buf)) {
			t.Fatalf("grown to %d keys, charged %d bytes; want %d keys, 8 bytes each", len(buf), charged, step.wantLen)
		}
		for i := range buf[:step.have] {
			if buf[i] != join.Key(i) {
				t.Fatalf("key %d lost in the growth to %d", i, len(buf))
			}
		}
		for i := step.have; i < step.need; i++ {
			buf[i] = join.Key(i)
		}
	}
	refused := errors.New("refused")
	same, err := growKeys(buf, 100, 101, 200, func(int64) error { return refused })
	if err != refused || len(same) != 100 || &same[0] != &buf[0] || charged != 800 {
		t.Fatalf("a refused growth returned %d keys, err %v, %d charged", len(same), err, charged)
	}
}

func writeBytes(bw *bufio.Writer, b []byte) error {
	_, err := bw.Write(b)
	return err
}
