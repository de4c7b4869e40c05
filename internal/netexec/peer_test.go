package netexec

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/faultnet"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/stats"
	"ewh/internal/wire"
)

// stageReference is the hand-composed in-process twin of a stage pipeline
// whose stage-2 plan is scheme2: stage 1's matches (the re-key column's
// entries of matched r2 rows) materialized in the same deterministic order,
// then run under scheme2 against r3. It returns the intermediate too.
func stageReference(t *testing.T, r1, r2, r3 []join.Key, scheme1, scheme2 partition.Scheme,
	model cost.Model, cfg exec.Config) ([]join.Key, *exec.Result) {
	t.Helper()
	var inter []join.Key
	perWorker := make([][]join.Key, scheme1.Workers())
	rk := rekeyOf(r2)
	if _, err := exec.RunPairsOver(exec.Local{}, r1, r2, join.Equi{}, scheme1, model, cfg,
		func(w, _, row2 int) { perWorker[w] = append(perWorker[w], rk[row2]) }); err != nil {
		t.Fatal(err)
	}
	for _, pw := range perWorker {
		inter = append(inter, pw...)
	}
	return inter, exec.Run(inter, r3, join.Equi{}, scheme2, model, cfg)
}

// rekeyOf derives each row's stage-2 key (here: the key itself, rotated): the
// re-key column a plan job re-shuffles.
func rekeyOf(keys []join.Key) []join.Key {
	rk := make([]join.Key, len(keys))
	for i, k := range keys {
		rk[i] = k*3 + 1
	}
	return rk
}

func TestPeerPipelineMatchesLocalReference(t *testing.T) {
	// End-to-end stage pipeline over loopback workers and in process, checked
	// against a hand-composed in-process reference: stage 1's matches (the
	// re-key column's entries of matched R2 rows), re-shuffled by the content-
	// deterministic Hash plan the Replan returns whatever the summaries say,
	// joined against R3. Hashed over four workers, each worker's share of R3
	// spans about 9 slots a key in the first row and 256 in the second: past
	// the dense budget, every stage-2 side is the sorted block, swept once over
	// the three senders' shares.
	_, addrs := startWorkerSet(t, 4)
	sess := dialSession(t, addrs)

	r1 := randKeys(1200, 600, 200)
	r2 := randKeys(1000, 600, 201)
	scheme1, err := partition.NewHash(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	scheme2, err := partition.NewHash(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := statsStagePlan(t, join.Equi{}, 4, 77, nil)
	cfg := exec.Config{Seed: 11, Mappers: 2}
	model := cost.Model{Wi: 1, Wo: 0.2}
	for _, row := range []struct {
		name string
		r3   []join.Key
	}{
		{"R3 at 2.2 slots a key", randKeys(900, 2000, 202)},
		{"R3 at 64 slots a key", randKeys(900, 64*900, 203)},
	} {
		inter, ref := stageReference(t, r1, r2, row.r3, scheme1, scheme2, model, cfg)
		want := localjoin.NestedLoopCount(inter, row.r3, join.Equi{})
		for _, rt := range []struct {
			name string
			rt   exec.StageRuntime
		}{{"session", sess}, {"local", exec.Local{}}} {
			res1, res2, err := exec.RunStagesOver(rt.rt, r1, r2, rekeyOf(r2),
				join.Equi{}, scheme1, sp, row.r3, model, cfg)
			if err != nil {
				t.Fatalf("%s, %s: %v", row.name, rt.name, err)
			}
			if int64(len(inter)) != res1.Output {
				t.Fatalf("%s, %s: stage 1 matched %d, reference %d", row.name, rt.name, res1.Output, len(inter))
			}
			if res2.Output != ref.Output || res2.Output != want {
				t.Fatalf("%s, %s: stage 2 output %d, reference %d, ground truth %d",
					row.name, rt.name, res2.Output, ref.Output, want)
			}
			for w := range ref.Workers {
				if res2.Workers[w] != ref.Workers[w] {
					t.Fatalf("%s, %s: stage 2 worker %d metrics differ: %+v, reference %+v",
						row.name, rt.name, w, res2.Workers[w], ref.Workers[w])
				}
			}
		}
	}
}

func TestPeerPipelineFailureNamesWorkerAndJob(t *testing.T) {
	// A replanned artifact routing to three workers under a two-address peer
	// map (the Replan claims a two-worker scheme) fails the plan job on every
	// worker; the aggregated error must name each failing worker's address
	// and the job.
	_, addrs := startWorkerSet(t, 2)
	sess := dialSession(t, addrs)

	r1 := randKeys(200, 100, 210)
	r2 := randKeys(200, 100, 211)
	scheme1, err := partition.NewHash(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := statsStagePlan(t, join.Equi{}, 2, 5, func([]*stats.Summary) ([]byte, partition.Scheme, error) {
		wide, err := partition.NewHash(3, nil)
		if err != nil {
			return nil, nil, err
		}
		narrow, err := partition.NewHash(2, nil)
		if err != nil {
			return nil, nil, err
		}
		b, err := planio.Encode(&planio.Artifact{Scheme: wide, Seed: 5})
		return b, narrow, err
	})
	_, _, err = exec.RunStagesOver(sess, r1, r2, rekeyOf(r2),
		join.Equi{}, scheme1, sp, r1, cost.Model{Wi: 1, Wo: 0.2},
		exec.Config{Seed: 3, Mappers: 1})
	if err == nil {
		t.Fatal("a plan wider than its peer map did not fail the pipeline")
	}
	for _, addr := range addrs {
		if !strings.Contains(err.Error(), addr) {
			t.Errorf("error does not name worker %s: %v", addr, err)
		}
	}
	if !strings.Contains(err.Error(), "stage job") || !strings.Contains(err.Error(), "address map") {
		t.Errorf("error does not name the stage job and cause: %v", err)
	}
}

func TestPeerDialFailureNamesPeerAddress(t *testing.T) {
	// Stage 1 runs on worker 0 only; the plan fans out to both workers, but
	// worker 1 is dead — the peer dial fails and the stage-1 job's error
	// must name the unreachable PEER address (not just the stage worker).
	ws, addrs := startWorkerSet(t, 2)
	sess := dialSession(t, addrs)
	_ = ws[1].Close()

	r1 := randKeys(400, 50, 220)
	r2 := randKeys(400, 50, 221)
	scheme1, err := partition.NewHash(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := statsStagePlan(t, join.Equi{}, 2, 9, nil)
	_, _, err = exec.RunStagesOver(sess, r1, r2, rekeyOf(r2),
		join.Equi{}, scheme1, sp, r1, cost.Model{Wi: 1, Wo: 0.2},
		exec.Config{Seed: 3, Mappers: 1})
	if err == nil {
		t.Fatal("unreachable peer did not fail the pipeline")
	}
	if !strings.Contains(err.Error(), "peer "+addrs[1]) {
		t.Errorf("error does not name the unreachable peer %s: %v", addrs[1], err)
	}
}

func TestPeerPipelineSurvivesShutdownAfterDrain(t *testing.T) {
	// After a completed pipeline, a graceful Shutdown must return promptly:
	// nothing of the contributions — their sessions, their transfers — may
	// wedge the drain.
	ws, addrs := startWorkerSet(t, 3)
	sess := dialSession(t, addrs)

	r1 := randKeys(600, 300, 230)
	r2 := randKeys(600, 300, 231)
	scheme1, err := partition.NewHash(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := statsStagePlan(t, join.Equi{}, 3, 13, nil)
	if _, _, err := exec.RunStagesOver(sess, r1, r2, rekeyOf(r2),
		join.Equi{}, scheme1, sp, r1, cost.Model{Wi: 1, Wo: 0.2},
		exec.Config{Seed: 3, Mappers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := w.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown after drained pipeline: %v", err)
		}
		cancel()
	}
}

func TestWorkerIOTimeoutFailsStalledTransfer(t *testing.T) {
	// A session peer that declares a frame payload and then stalls must be
	// disconnected by the worker's IO deadline instead of wedging the read
	// loop forever.
	ws, _ := startWorkers(t, func(w *Worker) { w.SetTimeouts(Timeouts{IO: 150 * time.Millisecond}) }, nil)
	w := ws[0]

	bw, conn := dialV3(t, w.Addr(), "")
	sendOpenJob(t, bw, 1, kindCount, 0)
	// Declare a 64-byte payload for a second open and send nothing.
	if err := writeFrameHeader(bw, wire.Open, 2, 64); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	_ = conn.SetReadDeadline(deadline)
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("worker kept the stalled connection open")
	}
	if time.Now().After(deadline) {
		t.Fatal("worker did not enforce the IO deadline")
	}
}

func TestDialWithRejectsUnreachableWorker(t *testing.T) {
	// The dial timeout bounds connection establishment; an address nobody
	// listens on fails the session dial outright.
	_, err := DialTenant(context.Background(), "", []string{"127.0.0.1:1"}, Timeouts{Dial: 500 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
}

// mustOpenTransfer opens token's transfer for senders, as a stage-2 job's
// open does; the caller closes it, as the job's retire does.
func mustOpenTransfer(t *testing.T, w *Worker, token uint64, senders int) *peerJobState {
	t.Helper()
	st, err := w.openTransfer(token, senders)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPlan2AwaitsEveryAcknowledgment pins the order that lets only a
// stage-2 job's open create a transfer: no PLAN2 leaves the coordinator —
// so no stage-1 worker contributes — until every stage-2 worker acknowledged
// its peer job's open. An open a draining worker refuses ends the pipeline
// at the acknowledgment, typed codeDraining, with no PLAN2 sent and nothing
// left held. An open that waits, unacknowledged, for a contribution is
// FuzzScenario's drawn hold (seeds 19, 33 and 37).
func TestPlan2AwaitsEveryAcknowledgment(t *testing.T) {
	r := randKeys(tableSmall, tableSmall, 540)
	t.Run("draining worker refuses the open", func(t *testing.T) {
		b := snapshotBaseline(t)
		scripts := []*faultnet.Script{faultnet.NewScript(), faultnet.NewScript()}
		ws, addrs := startWorkers(t, nil, scripts...)
		sess, err := DialTenant(context.Background(), "", addrs, Timeouts{Job: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		// Worker 0 starts draining once both summaries are in: its stage-1
		// job is parked, so its connection stays open and its peer open is
		// refused.
		drained := make(chan error, 1)
		sp := statsStagePlan(t, join.Equi{}, 2, 543, func([]*stats.Summary) ([]byte, partition.Scheme, error) {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				drained <- ws[0].Shutdown(ctx)
			}()
			waitFor(t, "worker 0 to drain", func() bool {
				ws[0].mu.Lock()
				defer ws[0].mu.Unlock()
				return ws[0].draining
			})
			scheme, err := partition.NewHash(2, nil)
			if err != nil {
				return nil, nil, err
			}
			b, err := planio.Encode(&planio.Artifact{Scheme: scheme, Seed: 543})
			return b, scheme, err
		})
		scheme1, err := partition.NewHash(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = exec.RunStagesOver(sess, r, r, r, join.Equi{}, scheme1, sp, nil, model, exec.Config{Seed: 544})
		refused := false
		for _, f := range Faults(err) {
			refused = refused || f.code == codeDraining && f.Addr == addrs[0] && f.op == "peer job"
		}
		if !refused {
			t.Fatalf("ended with %v, want worker 0's peer open refused as draining", err)
		}
		if n := scripts[0].Seen(faultnet.In, wire.Plan2) + scripts[1].Seen(faultnet.In, wire.Plan2); n != 0 {
			t.Fatalf("the stage-1 workers received %d PLAN2 frames past a refused open", n)
		}
		if err := <-drained; err != nil {
			t.Fatalf("worker 0's drain: %v", err)
		}
		b.returned(sess, ws)
	})
}

// TestPeerTransferCompletesAtSenderCount is the completion rule's table: a
// transfer exists from its stage-2 job's open on and is complete once as many
// senders as that open declared have committed — empty shares included, in
// memory or as contribution sub-jobs, in any order. A contribution ahead of
// the open is refused with codeCancelled, holds nothing and leaves the
// transfer the open then creates untouched. One admission rule fails an open
// transfer on a sender past the count, a duplicate sender, or contributions
// past a relation's cap: the commit a run's end frame declares is refused
// before anything joins the transfer. An open declaring no senders or more
// than maxPeerSenders creates no transfer, nor does a second open of a token.
func TestPeerTransferCompletesAtSenderCount(t *testing.T) {
	ws, _ := startWorkerSet(t, 1)
	w := ws[0]
	type contribution struct {
		sender int
		keys   []join.Key
		remote bool // a contribution sub-job, else in memory
	}
	for _, tc := range []struct {
		name          string
		senders       int
		before, after []contribution // around the open
		overCap       bool           // then sender 1 commits MaxRelationTuples
		openErr       string         // the open's refusal; "" accepts it
		transferErr   string         // the transfer's failure; "" completes it
	}{
		{name: "all shares empty", senders: 3,
			after: []contribution{{0, nil, true}, {1, nil, false}, {2, nil, true}}},
		{name: "some shares empty", senders: 3,
			after: []contribution{{2, []join.Key{5}, false}, {1, nil, true}, {0, []join.Key{1, 2}, true}}},
		{name: "shares before the open", senders: 2,
			before: []contribution{{0, []join.Key{1}, false}, {1, nil, true}},
			after:  []contribution{{1, []join.Key{4}, true}, {0, []join.Key{1}, false}}},
		{name: "sender past the count before the open", senders: 2,
			before: []contribution{{2, []join.Key{4}, true}},
			after:  []contribution{{0, []join.Key{1}, false}, {1, []join.Key{4}, true}}},
		{name: "sender past the count after the open", senders: 2,
			after:       []contribution{{0, []join.Key{1}, false}, {2, []join.Key{4}, true}},
			transferErr: "sender 2 of a 2-sender transfer"},
		{name: "duplicate sender", senders: 2,
			after:       []contribution{{1, []join.Key{1}, true}, {1, []join.Key{1}, false}},
			transferErr: "duplicate contribution from sender 1"},
		{name: "declarations past a relation's cap", senders: 2,
			after: []contribution{{0, []join.Key{1}, true}}, overCap: true,
			transferErr: "transfer contributions exceed"},
		{name: "no senders", senders: 0, openErr: "declares 0 senders"},
		{name: "more senders than the mesh allows", senders: maxPeerSenders + 1,
			openErr: fmt.Sprintf("declares %d senders", maxPeerSenders+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			token := newPeerToken()
			// A sub-job returns once its receiver answered.
			send := func(c contribution) error {
				if c.remote {
					return contribute(context.Background(), w.Addr(), "", Timeouts{}, token, c.sender, c.keys)
				}
				return w.deliverLocal(token, c.sender, "", c.keys)
			}
			for _, c := range tc.before {
				if err := send(c); rejectCode(err) != codeCancelled {
					t.Fatalf("sender %d ahead of the open: %v, want a cancelled refusal", c.sender, err)
				}
			}
			waitFor(t, "the refused contributions to be credited", func() bool { return w.Snapshot().Holdings.Bytes == 0 })
			if tc.openErr != "" {
				_, err := w.openTransfer(token, tc.senders)
				if err == nil || !strings.Contains(err.Error(), tc.openErr) {
					t.Fatalf("open of %d senders returned %v, want a refusal naming %q", tc.senders, err, tc.openErr)
				}
				if h := w.Snapshot().Holdings; h.Transfers != 0 {
					t.Fatalf("a refused open left the worker holding %+v", h)
				}
				return
			}
			st := mustOpenTransfer(t, w, token, tc.senders)
			defer w.closeTransfer(token, st)
			if h := w.Snapshot().Holdings; h.Transfers != 1 {
				t.Fatalf("an open transfer left the worker holding %+v", h)
			}
			st.mu.Lock()
			untouched := !st.done && len(st.contrib) == 0
			st.mu.Unlock()
			if !untouched {
				t.Fatal("the refused contributions reached the transfer the open created")
			}
			for _, c := range tc.after {
				_ = send(c) // a refusal fails st, checked below
			}
			if tc.overCap {
				// A share its run's end frame declares that large holds no
				// chunk here: the commit refuses it on the count alone.
				if err := w.commit(token, 1, &peerContrib{n: MaxRelationTuples}); err == nil {
					t.Fatal("a commit past the relation cap was taken")
				}
			}
			select {
			case <-st.ready:
			case <-time.After(5 * time.Second):
				t.Fatal("transfer neither completed nor failed")
			}
			st.mu.Lock()
			stErr, n := st.err, len(st.contrib)
			st.mu.Unlock()
			switch {
			case tc.transferErr != "":
				if stErr == nil || !strings.Contains(stErr.Error(), tc.transferErr) {
					t.Fatalf("transfer err = %v, want one naming %q", stErr, tc.transferErr)
				}
			case stErr != nil || n != tc.senders:
				t.Fatalf("transfer err = %v with %d contributions, want complete with %d", stErr, n, tc.senders)
			default:
				if _, err := w.openTransfer(token, tc.senders); err == nil || !strings.Contains(err.Error(), "already opened") {
					t.Fatalf("a second open returned %v, want a refusal", err)
				}
			}
		})
	}
	workersIdle(t, w)
}

// TestRetiredSessionFrameIsConnectionFatal pins the retired frame types:
// 11 and 12, the relation head and block a pairs or plan job's base and
// window runs replaced; 18, 19 and 33, the PLAN, OPENPEERJOB and STREAMOPEN
// the one OPEN's kind replaced; 20, the cancel by transfer token an ABORT
// past a job's EOS replaced; 25–27, the chunked-relation head, chunk and
// tail a count job's runs replaced; 28, the late sender-count bind; 30 and
// 31, the mesh's PEERHEAD and PEERBLOCK a contribution sub-job replaced; 32,
// the mesh's payload segment; and 38, the window reply the one REPLY
// replaced. A frame the session reader does not know ends the connection,
// and the job in flight on it retires — a contribution's having committed
// nothing and holding no byte.
func TestRetiredSessionFrameIsConnectionFatal(t *testing.T) {
	ws, addrs := startWorkerSet(t, 1)
	w := ws[0]
	for _, typ := range []byte{11, 12, 18, 19, 20, 25, 26, 27, 28, 30, 31, 32, 33, 38} {
		bw, conn := dialV3(t, addrs[0], "")
		token := newPeerToken()
		if typ >= 30 && typ <= 32 {
			err := writeCtl(bw, wire.Open, 1, &open{Kind: kindContrib, Token: token})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			sendOpenJob(t, bw, 1, kindPairs, 0)
		}
		err := errors.Join(writeRel(bw, 1, 1, []join.Key{3}), bw.Flush())
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the worker to register the job", func() bool { return w.Snapshot().Holdings.Jobs == 1 })
		var payload [16]byte
		if err := errors.Join(writeEndFrame(bw, typ, 1, payload[:]), bw.Flush()); err != nil {
			t.Fatal(err)
		}
		expectClosedSilently(t, conn)
		workersIdle(t, w) // a contribution cut short opened no transfer
	}
}

// TestPeerJobReplyCheckedAgainstSenderCounts pins the one place a stage-1
// sender's counts are verified now that the receiver knows only how many
// senders it has: the coordinator checks each stage-2 reply's joined tuples
// against the sum the senders reported routing to it. A scripted worker
// reports routing three tuples and then joins two; the pipeline fails as a
// validation fault that blames no worker.
func TestPeerJobReplyCheckedAgainstSenderCounts(t *testing.T) {
	leakCheck(t)
	const routed = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // one worker, scripted frame by frame
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		if _, err := io.ReadFull(br, wire.Prelude(wire.Version, "")); err != nil {
			return
		}
		peerJob := map[uint32]bool{}
		for {
			typ, id, n, err := readFrameHeader(br)
			if err != nil {
				return
			}
			var o open
			if typ == wire.Open {
				err = readCtl(br, n, maxOpenPayload, &o)
			} else {
				_, err = io.CopyN(io.Discard, br, int64(n))
			}
			if err != nil {
				return
			}
			switch {
			case typ == wire.Open && o.Kind == kindPeer: // acknowledged: its transfer is open
				peerJob[id] = true
				err = writeCtl(bw, wire.Reply, id, &reply{})
			case typ == wire.EOS && peerJob[id]:
				err = writeCtl(bw, wire.Reply, id, &reply{Final: true, InputR1: routed - 1})
			case typ == wire.EOS: // the stage-1 job: an empty summary, which Replan ignores
				err = writeCtl(bw, wire.Reply, id, &reply{})
			case typ == wire.Plan2:
				err = writeCtl(bw, wire.Reply, id, &reply{Final: true, Output: routed, PeerCounts: []int64{routed}})
			}
			if err != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	sess := dialSession(t, []string{ln.Addr().String()})
	scheme, err := partition.NewHash(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planio.Encode(&planio.Artifact{Scheme: scheme, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := exec.Config{Seed: 2}
	s1, s2 := exec.ShufflePair(randKeys(10, 5, 3), randKeys(10, 5, 4), scheme, cfg)
	defer s1.Release()
	defer s2.Release()
	r3 := exec.ShuffleKeysChunked(randKeys(10, 5, 5), scheme, 2, cfg)
	defer r3.Drain()
	first := &exec.Job{Cond: join.Equi{}, Workers: 1,
		R1: exec.ResolvedRelFuture(exec.RelData{Keys: s1}),
		R2: exec.ResolvedRelFuture(exec.RelData{Keys: s2, Rekey: s2})}
	next := &exec.PlanJob{Cond: join.Equi{}, R2: exec.ResolvedRelFuture(exec.RelData{Chunks: r3}),
		Stats:  exec.StatsSpec{Seed: 6},
		Replan: func([][]byte) ([]byte, int, error) { return plan, 1, nil }}
	_, err = sess.RunStages(first, next, make([]exec.WorkerMetrics, 1), make([]exec.WorkerMetrics, 1))
	if err == nil || !strings.Contains(err.Error(), "worker joined 2 peer tuples, senders reported 3") {
		t.Fatalf("RunStages returned %v, want the reply refused against the senders' counts", err)
	}
	for _, f := range Faults(err) {
		if f.Kind != FaultUnknown || f.RetryableFault() {
			t.Fatalf("the refusal blames the worker: %v", f)
		}
	}
}
