package netexec

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/faultnet"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
	"ewh/internal/planio"
)

// leakCheck snapshots the goroutine count and asserts at cleanup — after
// every later-registered cleanup (worker closes, session hangups) has run —
// that the test's goroutines have exited. Every session/peer/fault test gets
// this via the startWorkerSet/dialSession helpers, so no recovery path can
// leak parked readers unnoticed.
func leakCheck(t *testing.T) {
	t.Helper()
	t.Cleanup(snapshotBaseline(t).goroutinesSettled)
}

// startWorkerSet starts n workers and returns them with their addresses.
func startWorkerSet(t *testing.T, n int) ([]*Worker, []string) {
	t.Helper()
	leakCheck(t)
	ws := make([]*Worker, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w, err := ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
		addrs[i] = w.Addr()
		go func() { _ = w.Serve() }()
		t.Cleanup(func() { _ = w.Close() })
	}
	return ws, addrs
}

func dialSession(t *testing.T, addrs []string) *Session {
	t.Helper()
	sess, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sess.Close() })
	return sess
}

func TestSessionMatchesLocalAcrossJobs(t *testing.T) {
	r1 := randKeys(3000, 1500, 70)
	r2 := randKeys(3000, 1500, 71)
	cond := join.NewBand(2)
	plan, err := core.PlanCSIO(r1, r2, cond, core.Options{J: 4, Model: model, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startWorkerSet(t, plan.Scheme.Workers())
	sess := dialSession(t, addrs)
	want := localjoin.NestedLoopCount(r1, r2, cond)

	// N numbered jobs over the same dialed connections — the amortization
	// the session protocol exists for.
	for jobN := 0; jobN < 3; jobN++ {
		cfg := exec.Config{Seed: 73 + uint64(jobN)}
		local := exec.Run(r1, r2, cond, plan.Scheme, model, cfg)
		if local.Output != want {
			t.Fatalf("job %d: local output %d != ground truth %d", jobN, local.Output, want)
		}
		net, err := exec.RunOver(sess, r1, r2, cond, plan.Scheme, model, cfg)
		if err != nil {
			t.Fatalf("job %d: %v", jobN, err)
		}
		if net.Output != local.Output || net.NetworkTuples != local.NetworkTuples ||
			net.MaxWork != local.MaxWork || net.TotalWork != local.TotalWork {
			t.Fatalf("job %d: aggregates differ: sess %v local %v", jobN, net, local)
		}
		for w := range local.Workers {
			if net.Workers[w] != local.Workers[w] {
				t.Fatalf("job %d worker %d: sess %+v local %+v", jobN, w, net.Workers[w], local.Workers[w])
			}
		}
		if !strings.HasSuffix(net.Scheme, "@sess") {
			t.Fatalf("scheme label %q", net.Scheme)
		}
	}
}

func TestSessionWorkerDiesBetweenJobsAndRedial(t *testing.T) {
	r1 := randKeys(500, 300, 90)
	r2 := randKeys(500, 300, 91)
	cond := join.Equi{}
	scheme := partition.NewCI(2)
	ws, addrs := startWorkerSet(t, 2)
	sess := dialSession(t, addrs)
	cfg := exec.Config{Seed: 92}

	if _, err := exec.RunOver(sess, r1, r2, cond, scheme, model, cfg); err != nil {
		t.Fatal(err)
	}
	// Kill worker 1 between jobs: the next job must fail with one error
	// naming the worker's address and the job number, not hang.
	_ = ws[1].Close()
	_, err := exec.RunOver(sess, r1, r2, cond, scheme, model, cfg)
	if err == nil {
		t.Fatal("job against a dead worker succeeded")
	}
	if !strings.Contains(err.Error(), addrs[1]) {
		t.Fatalf("error %q does not name the dead worker %s", err, addrs[1])
	}
	if !strings.Contains(err.Error(), "job 2") {
		t.Fatalf("error %q does not name the job", err)
	}

	// Restart a worker and redial: a fresh session works.
	w2, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = w2.Serve() }()
	t.Cleanup(func() { _ = w2.Close() })
	sess2 := dialSession(t, []string{addrs[0], w2.Addr()})
	want := localjoin.NestedLoopCount(r1, r2, cond)
	res, err := exec.RunOver(sess2, r1, r2, cond, scheme, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != want {
		t.Fatalf("redialed output %d, want %d", res.Output, want)
	}
}

func TestSessionConcurrentJobs(t *testing.T) {
	r1 := randKeys(800, 500, 95)
	r2 := randKeys(800, 500, 96)
	cond := join.NewBand(1)
	scheme := partition.NewCI(2)
	_, addrs := startWorkerSet(t, 2)
	sess := dialSession(t, addrs)
	want := localjoin.NestedLoopCount(r1, r2, cond)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(seed uint64) {
			res, err := exec.RunOver(sess, r1, r2, cond, scheme, model, exec.Config{Seed: seed})
			if err == nil && res.Output != want {
				err = fmt.Errorf("output %d, want %d", res.Output, want)
			}
			done <- err
		}(uint64(100 + i))
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// dialV3 opens a raw session connection for protocol-level fault injection,
// its prelude naming tenant.
func dialV3(t *testing.T, addr, tenant string) (*bufio.Writer, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	bw := bufio.NewWriter(conn)
	if _, err := bw.Write(prelude(protoVersionSession, tenant)); err != nil {
		t.Fatal(err)
	}
	return bw, conn
}

// readV3Metrics reads the job's reply frames up to its final REPLY, past the
// PAIRS frames of a pairs job.
func readV3Metrics(t *testing.T, conn net.Conn, wantJob uint32) reply {
	t.Helper()
	br := bufio.NewReader(conn)
	for {
		typ, job, n, err := readV3FrameHeader(br)
		if err != nil {
			t.Fatalf("reading reply: %v", err)
		}
		if job != wantJob {
			t.Fatalf("reply for job %d, want %d", job, wantJob)
		}
		switch typ {
		case frameV3Pairs:
			if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
				t.Fatal(err)
			}
		case frameV3Reply:
			var m reply
			if err := readCtl(br, n, maxControlPayload, &m); err != nil {
				t.Fatal(err)
			}
			if !m.Final {
				t.Fatalf("interim reply %+v", m)
			}
			return m
		default:
			t.Fatalf("unexpected reply frame %d", typ)
		}
	}
}

// readV3ErrMetrics returns the error string of the job's final reply.
func readV3ErrMetrics(t *testing.T, conn net.Conn, wantJob uint32) string {
	t.Helper()
	return readV3Metrics(t, conn, wantJob).Err
}

// sendOpenJob opens an equi job of kind; a plan or peer job names token, and
// a plan job requests a small summary.
func sendOpenJob(t *testing.T, bw *bufio.Writer, id uint32, kind byte, token uint64) {
	t.Helper()
	spec, err := join.SpecOf(join.Equi{})
	if err != nil {
		t.Fatal(err)
	}
	o := open{Kind: kind, Cond: spec, Token: token, Senders: 1}
	if kind == kindPlan {
		o.Stats = exec.StatsSpec{Cap: 8, Buckets: 4}
	}
	if err := writeCtl(bw, frameV3Open, id, &o); err != nil {
		t.Fatal(err)
	}
}

// writeRel ships a pairs or plan job's relation rel whole, as writeRelation
// does: relation 1 as the base run, relation 2 as window 0 and 3, the re-key
// column, as window 1.
func writeRel(w io.Writer, job uint32, rel int, keys []join.Key) error {
	return writeRun(w, job, rel == 1, uint32(max(rel-2, 0)), 0, keys)
}

// answerStats plays the coordinator's half of a plan job's statistics
// exchange: it waits for the job's summary reply and answers with ps in a
// PLAN2.
func answerStats(t *testing.T, conn net.Conn, br *bufio.Reader, bw *bufio.Writer, job uint32, ps plan2) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, got, n, err := readV3FrameHeader(br)
	if err != nil || typ != frameV3Reply || got != job {
		t.Fatalf("awaiting job %d's statistics: frame %d for job %d (%v)", job, typ, got, err)
	}
	if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(writeCtl(bw, frameV3Plan2, job, &ps), bw.Flush()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionRekeyColumnEnforced drives every way relation 2's re-key column
// can be mis-declared or mis-shipped, frame by frame over a raw connection.
// Each refusal fails only its job: the next job on the same connection still
// joins (framing intact) and the tenant's reservation — 8 bytes per key, per
// column entry and per match — is back at zero.
func TestSessionRekeyColumnEnforced(t *testing.T) {
	const tenant = "rekeyed"
	r1, r2 := []join.Key{1, 2}, []join.Key{7, 8, 9} // disjoint: nothing to re-shuffle
	fits := int64(8 * (len(r1) + 2*len(r2)))        // both relations and the column
	hash, err := partition.NewHash(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planio.Encode(&planio.Artifact{Scheme: hash, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	column := func(n int) func(*bufio.Writer) error {
		return func(bw *bufio.Writer) error {
			return errors.Join(writeRel(bw, 1, 1, r1), writeRel(bw, 1, 2, r2), writeRel(bw, 1, 3, make([]join.Key, n)))
		}
	}
	for _, c := range []struct {
		name    string
		budget  int64
		plan    bool
		pairs   bool
		send    func(bw *bufio.Writer) error
		wantErr string // "" = the job succeeds
		code    int
	}{
		{name: "declared and complete", budget: fits, plan: true, send: column(len(r2))},
		{name: "charged to the tenant", budget: fits - 1, plan: true, send: column(len(r2)),
			wantErr: "budget", code: codeQuota},
		// Three equal keys a side: the 72 received bytes fit, the 9 matches
		// the join materializes (72 more) do not.
		{name: "matches charged to the tenant", budget: 100, plan: true,
			send: func(bw *bufio.Writer) error {
				dup := []join.Key{5, 5, 5}
				return errors.Join(writeRel(bw, 1, 1, dup), writeRel(bw, 1, 2, dup), writeRel(bw, 1, 3, dup))
			},
			wantErr: "would buffer 144 bytes (72 in use), budget 100", code: codeQuota},
		{name: "missing on a plan job", plan: true,
			send: func(bw *bufio.Writer) error {
				return errors.Join(writeRel(bw, 1, 1, r1), writeRel(bw, 1, 2, r2))
			},
			wantErr: "without relation 2's re-key column"},
		{name: "declared on a non-plan job", pairs: true, send: column(len(r2)), wantErr: "past epoch 0, window 0"},
		{name: "shipped for a chunked relation", send: column(len(r2)), wantErr: "past epoch 0, window 0"},
		{name: "short", plan: true, send: column(len(r2) - 1), wantErr: "re-key column holds 2 keys for relation 2's 3 tuples"},
		{name: "long", plan: true, send: column(len(r2) + 1), wantErr: "re-key column holds 4 keys for relation 2's 3 tuples"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ws, addrs := startTenantWorkerSet(t, 1, AdmissionConfig{},
				map[string]TenantPolicy{tenant: {MaxBytes: c.budget}})
			bw, conn := dialV3(t, addrs[0], tenant)
			br := bufio.NewReader(conn)
			token, kind := newPeerToken(), kindCount
			switch {
			case c.pairs:
				kind = kindPairs
			case c.plan:
				kind = kindPlan
			}
			sendOpenJob(t, bw, 1, kind, token)
			err := errors.Join(c.send(bw), writeV3FrameHeader(bw, frameV3EOS, 1, 0), bw.Flush())
			if err != nil {
				t.Fatal(err)
			}
			var st *peerJobState
			if c.wantErr == "" {
				// The stage-2 transfer the job's empty self-share completes.
				st = mustOpenTransfer(t, ws[0], token, 1)
				answerStats(t, conn, br, bw, 1, plan2{Plan: plan, Peers: addrs, Self: 0})
			}
			m := awaitFeedMetrics(t, conn, br, 1)
			if c.wantErr == "" {
				if m.Err != "" || m.InputR2 != int64(len(r2)) || len(m.PeerCounts) != 1 {
					t.Fatalf("plan job with its column replied %+v", m)
				}
				ws[0].closeTransfer(token, st)
			} else if !strings.Contains(m.Err, c.wantErr) || m.Code != c.code {
				t.Fatalf("replied %+v, want an error naming %q with code %d", m, c.wantErr, c.code)
			}

			// Same connection, next job: the refusal cost this job only, and
			// what it had reserved is credited back.
			workersIdle(t, ws...)
			sendOpenJob(t, bw, 2, kindPairs, 0)
			err = errors.Join(
				writeRel(bw, 2, 1, []join.Key{5}),
				writeRel(bw, 2, 2, []join.Key{5}),
				writeV3FrameHeader(bw, frameV3EOS, 2, 0), bw.Flush())
			if err != nil {
				t.Fatal(err)
			}
			if m := awaitFeedMetrics(t, conn, br, 2); m.Err != "" || m.Output != 1 {
				t.Fatalf("follow-up job replied %+v", m)
			}
			workersIdle(t, ws...)
		})
	}

	// A column misaligned with its relation never reaches the wire: the
	// coordinator refuses it at a frame boundary and ABORTs, so the session
	// stays usable and the worker's drain accounting is not stuck on the
	// orphan (Shutdown completes).
	t.Run("misaligned at the coordinator", func(t *testing.T) {
		ws, addrs := startWorkerSet(t, 1)
		sess := dialSession(t, addrs)
		keyShuffleOf := func(keys []join.Key) *exec.KeyShuffle {
			return exec.ShuffleKeys(keys, partition.NewCI(1), 1, exec.Config{Seed: 1})
		}
		job := &exec.Job{Cond: join.Equi{}, Workers: 1,
			R1:    exec.ResolvedRelFuture(exec.RelData{Keys: keyShuffleOf(r1)}),
			R2:    exec.ResolvedRelFuture(exec.RelData{Keys: keyShuffleOf(r2), Rekey: keyShuffleOf(r1)}),
			Pairs: func(int, []exec.PairIdx) {}}
		err := sess.RunJob(job, make([]exec.WorkerMetrics, 1))
		if err == nil || !strings.Contains(err.Error(), "re-key column holds 2 keys for 3 tuples") {
			t.Fatalf("misaligned column: RunJob returned %v", err)
		}
		keys := randKeys(200, 100, 130)
		res, err := exec.RunOver(sess, keys, keys, join.Equi{}, partition.NewCI(1), model, exec.Config{Seed: 131})
		if err != nil {
			t.Fatalf("session unusable after aborted job: %v", err)
		}
		if want := localjoin.NestedLoopCount(keys, keys, join.Equi{}); res.Output != want {
			t.Fatalf("output %d, want %d", res.Output, want)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ws[0].Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown stuck on aborted job's accounting: %v", err)
		}
	})
}

// TestSessionRelationFormsByJobKind pins which relation forms a job kind
// takes, every one shipping as base and window runs. A pairs job's indices
// name arrival order, so Session.sendJob refuses a chunk stream handed to one
// after the open and before any relation frame: a validation abort that blames
// no worker; the worker retires the job, and the session still joins. A count
// job takes either form: flat, it counts what exec.Run counts.
func TestSessionRelationFormsByJobKind(t *testing.T) {
	leakCheck(t)
	seen := map[byte]*atomic.Bool{}
	var rules []faultnet.Rule
	runFrames := []byte{faultnet.FrameStreamBase, faultnet.FrameStreamBaseEnd,
		faultnet.FrameStreamWin, faultnet.FrameStreamWinEnd}
	for _, f := range append([]byte{faultnet.FrameOpen, faultnet.FrameAbort}, runFrames...) {
		arrived := new(atomic.Bool)
		seen[f] = arrived
		rules = append(rules, faultnet.Rule{Dir: faultnet.In, Frame: f, Action: faultnet.ActHook,
			Fn: func() { arrived.Store(true) }})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := ListenWorkerOn(faultnet.Wrap(ln, faultnet.NewScript(rules...)))
	go func() { _ = w.Serve() }()
	t.Cleanup(func() { _ = w.Close() })
	sess := dialSession(t, []string{w.Addr()})

	scheme, cfg := partition.NewCI(1), exec.Config{Seed: 141}

	t.Run("chunk stream on a pairs job", func(t *testing.T) {
		keys := randKeys(200, 100, 140)
		chunked := exec.ShuffleKeysChunked(keys, scheme, 1, cfg)
		defer chunked.Drain()
		flat := exec.ShuffleKeys(keys, scheme, 1, cfg)
		defer flat.Release()
		job := &exec.Job{Cond: join.Equi{}, Workers: 1,
			R1:    exec.ResolvedRelFuture(exec.RelData{Chunks: chunked}),
			R2:    exec.ResolvedRelFuture(exec.RelData{Keys: flat}),
			Pairs: func(int, []exec.PairIdx) {}}
		err := sess.RunJob(job, make([]exec.WorkerMetrics, 1))
		if err == nil || !strings.Contains(err.Error(), "a pairs or plan job's relations ship flat") {
			t.Fatalf("chunked pairs job: RunJob returned %v", err)
		}
		for _, f := range Faults(err) {
			if f.Kind != FaultUnknown || f.RetryableFault() {
				t.Fatalf("the refusal blames the worker: %v", f)
			}
		}
		waitFor(t, "the ABORT to retire the job on the worker", func() bool {
			return seen[faultnet.FrameAbort].Load() && w.Snapshot().Holdings.Jobs == 0
		})
		if !seen[faultnet.FrameOpen].Load() {
			t.Fatal("the job was never opened")
		}
		for _, f := range runFrames {
			if seen[f].Load() {
				t.Fatalf("frame type %d of the refused job reached the worker", f)
			}
		}
		res, err := exec.RunOver(sess, keys, keys, join.Equi{}, scheme, model, cfg)
		if err != nil {
			t.Fatalf("session unusable after the refusal: %v", err)
		}
		if want := localjoin.NestedLoopCount(keys, keys, join.Equi{}); res.Output != want {
			t.Fatalf("output %d, want %d", res.Output, want)
		}
	})

	t.Run("flat count job", func(t *testing.T) {
		r1, r2 := randKeys(300, 120, 142), randKeys(300, 120, 143)
		cond := join.NewBand(2)
		s1, s2 := exec.ShufflePair(r1, r2, scheme, cfg)
		defer s1.Release()
		defer s2.Release()
		wm := make([]exec.WorkerMetrics, 1)
		err := sess.RunJob(&exec.Job{Cond: cond, Workers: 1,
			R1: exec.ResolvedRelFuture(exec.RelData{Keys: s1}), R2: exec.ResolvedRelFuture(exec.RelData{Keys: s2})}, wm)
		if err != nil {
			t.Fatalf("flat count job: RunJob returned %v", err)
		}
		want := exec.Run(r1, r2, cond, scheme, model, cfg).Workers[0]
		want.Work = 0 // the driver derives it from the model; RunJob leaves it
		if wm[0] != want {
			t.Fatalf("flat count job counted %+v, exec.Run %+v", wm[0], want)
		}
	})
}

func TestSessionBlockLengthMismatchKeepsStreamInSync(t *testing.T) {
	// A key frame whose header length disagrees with its embedded count
	// fails the job, but the worker must consume exactly the frame-declared
	// bytes — the next job on the same connection still works.
	_, addrs := startWorkerSet(t, 1)
	bw, conn := dialV3(t, addrs[0], "")
	sendOpenJob(t, bw, 1, kindPairs, 0)
	// Frame declares 8 + 16 payload bytes but the embedded count says 1 key
	// (8 + 8): the extra 8 bytes must be drained as frame payload.
	var frame [streamBaseHdrLen + 16]byte
	binary.LittleEndian.PutUint32(frame[4:], 1)
	err := errors.Join(writeV3FrameHeader(bw, frameV3StreamBase, 1, len(frame)), func() error {
		_, err := bw.Write(frame[:])
		return err
	}(), writeRel(bw, 1, 2, nil), writeV3FrameHeader(bw, frameV3EOS, 1, 0), bw.Flush())
	if err != nil {
		t.Fatal(err)
	}
	if msg := readV3ErrMetrics(t, conn, 1); !strings.Contains(msg, "inconsistent") {
		t.Fatalf("mismatched key frame accepted: %q", msg)
	}

	// Same connection, next job: framing survived the bad frame.
	sendOpenJob(t, bw, 2, kindPairs, 0)
	err = errors.Join(writeRel(bw, 2, 1, []join.Key{5}), writeRel(bw, 2, 2, []join.Key{5}),
		writeV3FrameHeader(bw, frameV3EOS, 2, 0), bw.Flush())
	if err != nil {
		t.Fatal(err)
	}
	if msg := readV3ErrMetrics(t, conn, 2); msg != "" {
		t.Fatalf("follow-up job failed after drained bad frame: %q", msg)
	}
}

func TestWorkerShutdownDrainsInFlightJob(t *testing.T) {
	ws, addrs := startWorkerSet(t, 1)
	w := ws[0]

	// Open a session job and stall before EOS, then shut down: Shutdown
	// must wait for the job, the worker must still reply, and the listener
	// must refuse new connections.
	bw, conn := dialV3(t, addrs[0], "")
	sendOpenJob(t, bw, 1, kindPairs, 0)
	if err := errors.Join(writeRel(bw, 1, 1, []join.Key{1, 2}), bw.Flush()); err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to register the in-flight job.
	time.Sleep(50 * time.Millisecond)

	var shutdownDone atomic.Bool
	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := w.Shutdown(ctx)
		shutdownDone.Store(true)
		shutErr <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if shutdownDone.Load() {
		t.Fatal("Shutdown returned while a job was still in flight")
	}
	// Finish the job; the drain completes and the reply still arrives.
	err := errors.Join(writeRel(bw, 1, 2, []join.Key{2}), writeV3FrameHeader(bw, frameV3EOS, 1, 0), bw.Flush())
	if err != nil {
		t.Fatal(err)
	}
	if msg := readV3ErrMetrics(t, conn, 1); msg != "" {
		t.Fatalf("drained job failed: %q", msg)
	}
	if err := <-shutErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := Dial([]string{addrs[0]}); err == nil {
		t.Fatal("worker accepted a connection after Shutdown")
	}
}

func TestWorkerShutdownRefusesNewJobs(t *testing.T) {
	ws, addrs := startWorkerSet(t, 1)
	sess := dialSession(t, addrs)
	r1 := randKeys(100, 50, 110)
	scheme := partition.NewCI(1)
	if _, err := exec.RunOver(sess, r1, r1, join.Equi{}, scheme, model, exec.Config{Seed: 111}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ws[0].Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The session's connection was closed by the drain; a new job fails
	// cleanly rather than hanging.
	if _, err := exec.RunOver(sess, r1, r1, join.Equi{}, scheme, model, exec.Config{Seed: 112}); err == nil {
		t.Fatal("job accepted after worker shutdown")
	}
}

func TestSessionErrorAggregationNamesAllFailures(t *testing.T) {
	r1 := randKeys(2000, 1000, 120)
	r2 := randKeys(2000, 1000, 121)
	scheme := partition.NewCI(4)
	b := snapshotBaseline(t)
	ws, addrs := startWorkerSet(t, 4)
	sess := dialSession(t, addrs)
	if _, err := exec.RunOver(sess, r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 122}); err != nil {
		t.Fatal(err)
	}
	_ = ws[1].Close()
	_ = ws[3].Close()
	_, err := exec.RunOver(sess, r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 123})
	if err == nil {
		t.Fatal("job with two dead workers succeeded")
	}
	for _, addr := range []string{addrs[1], addrs[3]} {
		if !strings.Contains(err.Error(), addr) {
			t.Fatalf("aggregated error %q does not name failed worker %s", err, addr)
		}
	}
	for _, addr := range []string{addrs[0], addrs[2]} {
		if strings.Contains(err.Error(), addr) {
			t.Fatalf("aggregated error %q names healthy worker %s", err, addr)
		}
	}

	// A failed job must not leak the session's goroutines: after tearing
	// everything down, the count settles back to (roughly) the baseline.
	_ = sess.Close()
	for _, w := range ws {
		_ = w.Close()
	}
	b.goroutinesSettled()
}
