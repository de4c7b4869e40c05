package netexec

import (
	"bufio"
	"context"
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
	"ewh/internal/wire"
)

// TestDeclaredRunsAllocateOnArrival is the declare-then-stall adversary
// against the worker's ledger. Over several rounds, one connection per kind of
// run — a pairs job's flat relation, a count job's base, a stream's base and
// window, a peer's contribution — opens a 1 MiB key frame and stalls after its
// sub-header. No run has a head that could size a buffer; each frame is
// charged before its buffer exists, so the worker holds at most its budget
// however much was declared, and the frames past the budget are refused. A
// job needing the budget fails with ErrQuota meanwhile; once the stalled
// connections hang up the ledger is back at zero and the same job runs.
func TestDeclaredRunsAllocateOnArrival(t *testing.T) {
	leakCheck(t)
	const (
		budget     = 4 << 20
		stallKeys  = 1 << 17 // 1 MiB per stalled frame: four fill the budget
		rounds     = 3
		perConnMax = 256 << 10 // a connection's own buffers: reader, writer, state
	)
	ws, _ := startWorkers(t, func(w *Worker) { w.ledger.budget = budget }, nil)
	w := ws[0]
	spec, err := join.SpecOf(join.Equi{})
	if err != nil {
		t.Fatal(err)
	}

	// stall opens a key frame of stallKeys keys under sub (whose last four
	// bytes take the count) and sends nothing past the sub-header.
	stall := func(bw *bufio.Writer, typ byte, job uint32, sub []byte) error {
		binary.LittleEndian.PutUint32(sub[len(sub)-4:], stallKeys)
		err := writeFrameHeader(bw, typ, job, len(sub)+8*stallKeys)
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
			return errors.Join(writeCtl(bw, wire.Open, 1, &open{Kind: kindPairs, Cond: spec}),
				stall(bw, wire.StreamBase, 1, make([]byte, streamBaseHdrLen)))
		}},
		{"count job base", func(bw *bufio.Writer, _ int) error {
			return errors.Join(writeCtl(bw, wire.Open, 1, &open{Kind: kindCount, Cond: spec}),
				stall(bw, wire.StreamBase, 1, make([]byte, streamBaseHdrLen)))
		}},
		{"stream base", func(bw *bufio.Writer, _ int) error {
			return errors.Join(writeCtl(bw, wire.Open, 1, &open{Kind: kindStream, Cond: spec}),
				stall(bw, wire.StreamBase, 1, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
		}},
		{"stream window", func(bw *bufio.Writer, _ int) error {
			return errors.Join(writeCtl(bw, wire.Open, 1, &open{Kind: kindStream, Cond: spec}),
				stall(bw, wire.StreamWin, 1, make([]byte, streamWinHdrLen)))
		}},
		{"peer contribution", func(bw *bufio.Writer, round int) error {
			return errors.Join(writeCtl(bw, wire.Open, 1, &open{Kind: kindContrib, Token: uint64(round + 1)}),
				stall(bw, wire.StreamBase, 1, make([]byte, streamBaseHdrLen)))
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
			bw := bufio.NewWriter(conn)
			if err := errors.Join(writeBytes(bw, wire.Prelude(wire.Version, "")), k.send(bw, round), bw.Flush()); err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
		}
	}
	defer func() {
		for _, c := range stalled {
			_ = c.Close()
		}
	}()
	// Every stalled connection holds its open job; the frames charged fill
	// the budget.
	full := Holdings{Jobs: len(stalled), Bytes: budget}
	waitFor(t, "the stalled frames to fill the budget", func() bool { return w.Snapshot().Holdings == full })
	time.Sleep(100 * time.Millisecond) // the frames past the budget meet a full ledger
	runtime.ReadMemStats(&after)
	declared := int64(rounds*len(kinds)) * 8 * stallKeys
	bound := uint64(budget + len(stalled)*perConnMax + 4<<20)
	grew := after.TotalAlloc - before.TotalAlloc
	if grew > bound {
		t.Fatalf("%d connections declaring %d bytes made the process allocate %d bytes, bound %d",
			len(stalled), declared, grew, bound)
	}
	t.Logf("%d connections declared %d bytes; the process allocated %d", len(stalled), declared, grew)
	if h := w.Snapshot().Holdings; h != full {
		t.Fatalf("worker holds %+v, want %+v", h, full)
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
	workersIdle(t, w)
	res, err := run()
	if err != nil {
		t.Fatalf("job after the stalls hung up: %v", err)
	}
	if want := localjoin.NestedLoopCount(keys, keys, join.Equi{}); res.Output != want {
		t.Fatalf("output %d, want %d", res.Output, want)
	}
	workersIdle(t, w)
}

// TestPeerContributionPastBudgetIsTyped pins a contribution's account end to
// end: a stage-1 plan job's share for a peer is charged on that peer to the
// plan job's tenant from its first key frame, so a share past the tenant's
// MaxBytes there is refused, typed. The refusal fails the sender's plan job
// and, through it, the pipeline with ErrQuota naming the peer — a policy
// verdict, never retried — and nothing stays charged on either worker.
func TestPeerContributionPastBudgetIsTyped(t *testing.T) {
	const tenant = "capped"
	ws, addrs := startWorkerSet(t, 2)
	// Stage 1 runs on worker 0 alone; worker 1 takes the contribution.
	ws[1].SetTenantPolicy(tenant, TenantPolicy{MaxBytes: 1 << 10})
	sess, err := DialTenant(context.Background(), tenant, addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	scheme1, err := partition.NewHash(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// ~1600 matches, half of them routed to worker 1: 6 KiB past its 1 KiB.
	r1, r2 := randKeys(400, 100, 240), randKeys(400, 100, 241)
	sp := statsStagePlan(t, join.Equi{}, 2, 17, nil)
	_, _, err = exec.RunStagesOver(sess, r1, r2, rekeyOf(r2), join.Equi{}, scheme1, sp,
		randKeys(10, 100, 242), model, exec.Config{Seed: 4, Mappers: 1})
	if !errors.Is(err, ErrQuota) || !strings.Contains(err.Error(), "peer "+addrs[1]) {
		t.Fatalf("a contribution past the peer's budget: %v, want ErrQuota naming peer %s", err, addrs[1])
	}
	for _, f := range Faults(err) {
		if f.RetryableFault() {
			t.Fatalf("a quota refusal is retryable: %v", f)
		}
	}
	workersIdle(t, ws...)
}

// TestPeerBlocksDecodeSideBySide pins the one-chunk-per-frame rule on a
// transfer's receiving side: each contribution is a sub-job on a connection
// of its own whose key frames are charged, then decode into their own chunks
// outside the transfer's lock — so while one contribution's frame is still
// decoding, another commits beside it, and the first commits once its bytes
// arrive. A contribution whose connection hangs up mid-frame commits
// nothing, and its frame's charge is credited.
func TestPeerBlocksDecodeSideBySide(t *testing.T) {
	ws, _ := startWorkerSet(t, 1)
	w := ws[0]
	token := newPeerToken()
	st := mustOpenTransfer(t, w, token, 3)
	// contrib opens sender's contribution on a connection of its own and
	// sends a 2-key base frame of which only the first sent bytes of keys go
	// out.
	contrib := func(sender, sent int) (net.Conn, *bufio.Writer) {
		bw, conn := dialV3(t, w.Addr(), "")
		var h [streamBaseHdrLen]byte
		binary.LittleEndian.PutUint32(h[4:], 2)
		err := errors.Join(writeCtl(bw, wire.Open, 1, &open{Kind: kindContrib, WorkerID: sender, Token: token}),
			writeFrameHeader(bw, wire.StreamBase, 1, streamBaseHdrLen+16),
			writeBytes(bw, h[:]), writeBytes(bw, make([]byte, sent)), bw.Flush())
		if err != nil {
			t.Fatal(err)
		}
		return conn, bw
	}
	// finish sends the rest of the frame, the run's end and EOS, and reads
	// the commit.
	finish := func(conn net.Conn, bw *bufio.Writer, rest int) {
		err := errors.Join(writeBytes(bw, make([]byte, rest)), writeStreamBaseEnd(bw, 1, 0, 2),
			writeFrameHeader(bw, wire.EOS, 1, 0), bw.Flush())
		if err != nil {
			t.Fatal(err)
		}
		if m := awaitFeedMetrics(t, conn, bufio.NewReader(conn), 1); m.Err != "" || m.InputR1 != 2 {
			t.Fatalf("the contribution replied %+v, want 2 tuples committed", m)
		}
	}
	// committed waits until the transfer holds the given senders' shares and
	// the ledger reads held.
	committed := func(what string, held int64, senders ...int) {
		waitFor(t, what, func() bool {
			if w.Snapshot().Holdings.Bytes != held {
				return false
			}
			st.mu.Lock()
			defer st.mu.Unlock()
			for _, s := range senders {
				if st.contrib[s] == nil {
					return false
				}
			}
			return len(st.contrib) == len(senders)
		})
	}

	firstConn, first := contrib(0, 8)
	committed("the first frame to be decoding", 16)
	secondConn, second := contrib(1, 16)
	finish(secondConn, second, 0)
	committed("the second contribution to commit beside it", 32, 1)
	finish(firstConn, first, 8)
	committed("the first contribution to commit", 32, 0, 1)

	stalled, _ := contrib(2, 8)
	committed("the third frame to be decoding", 48, 0, 1)
	_ = stalled.Close()
	committed("the hung-up contribution to be credited", 32, 0, 1)
	w.closeTransfer(token, st)
	workersIdle(t, w)
}

func writeBytes(bw *bufio.Writer, b []byte) error {
	_, err := bw.Write(b)
	return err
}
