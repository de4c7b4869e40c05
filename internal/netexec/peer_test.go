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
	"testing"
	"time"

	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/stats"
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
	// End-to-end stage pipeline over loopback workers, checked against a
	// hand-composed in-process reference: stage 1's matches (the re-key
	// column's entries of matched R2 rows), re-shuffled by the content-
	// deterministic Hash plan the Replan returns whatever the summaries say,
	// joined against R3.
	_, addrs := startWorkerSet(t, 4)
	sess := dialSession(t, addrs)

	r1 := randKeys(1200, 600, 200)
	r2 := randKeys(1000, 600, 201)
	r3 := randKeys(900, 2000, 202)
	scheme1, err := partition.NewHash(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := statsStagePlan(t, join.Equi{}, 4, 77, nil)
	cfg := exec.Config{Seed: 11, Mappers: 2}
	model := cost.Model{Wi: 1, Wo: 0.2}

	res1, res2, err := exec.RunStagesOver(sess, r1, r2, rekeyOf(r2),
		join.Equi{}, scheme1, sp, r3, model, cfg)
	if err != nil {
		t.Fatal(err)
	}

	scheme2, err := partition.NewHash(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	inter, ref := stageReference(t, r1, r2, r3, scheme1, scheme2, model, cfg)
	if int64(len(inter)) != res1.Output {
		t.Fatalf("stage 1 matched %d, reference %d", res1.Output, len(inter))
	}
	if res2.Output != ref.Output {
		t.Fatalf("stage 2 output %d, reference %d", res2.Output, ref.Output)
	}
	if want := localjoin.NestedLoopCount(inter, r3, join.Equi{}); res2.Output != want {
		t.Fatalf("stage 2 output %d, ground truth %d", res2.Output, want)
	}
	for w := range ref.Workers {
		if res2.Workers[w] != ref.Workers[w] {
			t.Fatalf("stage 2 worker %d metrics differ: peer %+v reference %+v",
				w, res2.Workers[w], ref.Workers[w])
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
	// the kept-open peer-mesh connections may not wedge the drain.
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
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.SetTimeouts(Timeouts{IO: 150 * time.Millisecond})
	go func() { _ = w.Serve() }()
	t.Cleanup(func() { _ = w.Close() })

	bw, conn := dialV3(t, w.Addr(), "")
	sendOpenJob(t, bw, 1, kindCount, 0)
	// Declare a 64-byte payload for a second open and send nothing.
	if err := writeV3FrameHeader(bw, frameV3Open, 2, 64); err != nil {
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

// TestPeerJobExitTombstonesTransfer pins the single retire path: however a
// peer-fed job leaves before consuming its transfer — ABORT or the
// coordinator hanging up — the opened token ends as the same buffer-less
// failed tombstone, so a late contribution is swallowed instead of
// assembling into a block nobody will read (and the table slot stays
// evictable).
func TestPeerJobExitTombstonesTransfer(t *testing.T) {
	ws, addrs := startWorkerSet(t, 1)
	w := ws[0]
	spec, err := join.SpecOf(join.Equi{})
	if err != nil {
		t.Fatal(err)
	}
	state := func(token uint64) *peerJobState {
		w.peersMu.Lock()
		defer w.peersMu.Unlock()
		return w.peerStates[token]
	}
	for _, tc := range []struct {
		name  string
		leave func(bw *bufio.Writer, conn net.Conn) error
	}{
		{"abort", func(bw *bufio.Writer, _ net.Conn) error {
			if err := writeV3FrameHeader(bw, frameV3Abort, 1, 0); err != nil {
				return err
			}
			return bw.Flush()
		}},
		{"hangup", func(_ *bufio.Writer, conn net.Conn) error { return conn.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			token := newPeerToken()
			bw, conn := dialV3(t, addrs[0], "")
			o := open{Kind: kindPeer, Cond: spec, Token: token, Senders: 1}
			if err := writeCtl(bw, frameV3Open, 1, &o); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the job to open its transfer", func() bool {
				st := state(token)
				if st == nil {
					return false
				}
				st.mu.Lock()
				defer st.mu.Unlock()
				return st.senders != 0
			})
			if err := tc.leave(bw, conn); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the transfer to be tombstoned", func() bool {
				st := state(token)
				st.mu.Lock()
				defer st.mu.Unlock()
				return st.done && st.err != nil
			})
			// The one sender's contribution arrives anyway, late.
			pc := meshSend(t, w, token, 0, []join.Key{7})
			defer pc.close()
			// A second send on the same link is ordered after the first, so
			// once ITS transfer assembles the late frames have been handled.
			probe := newPeerToken()
			if err := pc.sendContribution(Timeouts{}, probe, 0, []join.Key{1}); err != nil {
				t.Fatal(err)
			}
			awaitTransfer(t, w, probe, 1)
			w.dropPeerState(probe)
			st := state(token)
			st.mu.Lock()
			defer st.mu.Unlock()
			if !st.done || st.err == nil || len(st.contrib) != 0 {
				t.Fatalf("token state after %s: done=%v err=%v contributions=%d, want a buffer-less failed tombstone",
					tc.name, st.done, st.err, len(st.contrib))
			}
		})
	}
}

// meshSend streams one contribution to the worker over a real TCP mesh
// connection, as a remote stage-1 sender would.
func meshSend(t *testing.T, w *Worker, token uint64, sender int, keys []join.Key) *peerConn {
	t.Helper()
	pc := &peerConn{addr: w.Addr()}
	if err := pc.sendContribution(Timeouts{}, token, sender, keys); err != nil {
		t.Fatalf("sender %d: %v", sender, err)
	}
	return pc
}

// awaitTransfer declares the transfer's sender count, as a stage-2 job's open
// does, and waits for it to assemble or fail.
func awaitTransfer(t *testing.T, w *Worker, token uint64, senders int) *peerJobState {
	t.Helper()
	st := w.peerState(token)
	if err := st.expect(senders); err != nil {
		t.Fatal(err)
	}
	select {
	case <-st.ready:
	case <-time.After(10 * time.Second):
		t.Fatal("transfer never assembled")
	}
	return st
}

// TestUnknownPeerFrameFailsTransfer pins what a frame the mesh does not know
// — here type 32, the retired payload segment — costs: the connection dies and
// the contributions still streaming over it fail with the sender named, so
// the stage-2 job parked on the transfer replies an error instead of waiting.
func TestUnknownPeerFrameFailsTransfer(t *testing.T) {
	ws, _ := startWorkerSet(t, 1)
	w := ws[0]
	token := newPeerToken()
	// A complete keys-only contribution from sender 0 assembles as ever...
	pc := meshSend(t, w, token, 0, []join.Key{7, 8, 9})
	defer pc.close()
	// ...while sender 1 declares two keys and then sends the unknown frame.
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	var h [peerHeadLen]byte
	binary.LittleEndian.PutUint64(h[:], token)
	binary.LittleEndian.PutUint32(h[8:], 1)
	binary.LittleEndian.PutUint32(h[12:], 2)
	_, _ = bw.Write(prelude(protoVersionPeer, ""))
	_ = writeV3FrameHeader(bw, framePeerHead, 0, peerHeadLen)
	_, _ = bw.Write(h[:])
	_ = writeV3FrameHeader(bw, 32, 0, peerHeadLen)
	_, _ = bw.Write(h[:])
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	st := awaitTransfer(t, w, token, 2)
	st.mu.Lock()
	stErr := st.err
	st.mu.Unlock()
	if stErr == nil || !strings.Contains(stErr.Error(), "unknown peer frame type 32") ||
		!strings.Contains(stErr.Error(), "sender 1") {
		t.Fatalf("transfer err = %v, want the unknown frame failing sender 1's contribution", stErr)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("worker kept the mesh connection open after an unknown frame")
	}
	w.dropPeerState(token)
}

// TestPeerTransferCompletesAtSenderCount is the completion rule's table: a
// transfer is complete once as many senders as its stage-2 open declared have
// fully contributed — empty shares included, in memory or over the mesh, in
// any order around the open — and one admission rule fails it on a sender
// past the count (whether it arrived before or after the open), a duplicate
// sender, or declarations past a relation's cap. An open declaring no senders or more than maxPeerSenders is refused
// without touching the transfer, as is a second open of a complete one.
func TestPeerTransferCompletesAtSenderCount(t *testing.T) {
	ws, _ := startWorkerSet(t, 1)
	w := ws[0]
	type contribution struct {
		sender int
		keys   []join.Key
		mesh   bool // over a mesh connection, else in memory
	}
	for _, tc := range []struct {
		name          string
		senders       int
		before, after []contribution // around the open
		overCap       bool           // then sender 1's bare mesh head declares MaxRelationTuples
		openErr       string         // the open's refusal; "" accepts it
		transferErr   string         // the transfer's failure; "" completes it
	}{
		{name: "all shares empty", senders: 3,
			before: []contribution{{0, nil, true}},
			after:  []contribution{{1, nil, false}, {2, nil, true}}},
		{name: "some shares empty", senders: 3,
			before: []contribution{{2, []join.Key{5}, false}},
			after:  []contribution{{1, nil, true}, {0, []join.Key{1, 2}, true}}},
		{name: "sender past the count before the open", senders: 2,
			before:      []contribution{{0, []join.Key{1}, false}, {2, []join.Key{4}, true}},
			transferErr: "sender 2 of a 2-sender transfer"},
		{name: "sender past the count after the open", senders: 2,
			after:       []contribution{{0, []join.Key{1}, false}, {2, []join.Key{4}, true}},
			transferErr: "sender 2 of a 2-sender transfer"},
		{name: "duplicate sender", senders: 2,
			before:      []contribution{{1, []join.Key{1}, true}},
			after:       []contribution{{1, []join.Key{1}, false}},
			transferErr: "duplicate contribution from sender 1"},
		{name: "declarations past a relation's cap", senders: 2,
			before: []contribution{{0, []join.Key{1}, true}}, overCap: true,
			transferErr: "transfer declarations exceed"},
		{name: "no senders", senders: 0, openErr: "declares 0 senders"},
		{name: "more senders than the mesh allows", senders: maxPeerSenders + 1,
			openErr: fmt.Sprintf("declares %d senders", maxPeerSenders+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			token := newPeerToken()
			st := w.peerState(token)
			defer w.dropPeerState(token)
			pc := &peerConn{addr: w.Addr()}
			defer pc.close()
			contribute := func(cs []contribution) {
				for _, c := range cs {
					if !c.mesh {
						_ = w.deliverLocal(token, c.sender, c.keys) // a refusal fails st, checked below
						continue
					}
					if err := pc.sendContribution(Timeouts{}, token, c.sender, c.keys); err != nil {
						t.Fatal(err)
					}
					waitFor(t, "the mesh contribution to land", func() bool {
						st.mu.Lock()
						defer st.mu.Unlock()
						c := st.contrib[c.sender]
						return st.done || (c != nil && c.pos == c.declared)
					})
				}
			}
			contribute(tc.before)
			err := st.expect(tc.senders)
			if tc.openErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.openErr) {
					t.Fatalf("open of %d senders returned %v, want a refusal naming %q", tc.senders, err, tc.openErr)
				}
				// The refusal failed only the open: the transfer still
				// completes under a valid one.
				tc.senders, tc.after = 1, []contribution{{0, []join.Key{3}, false}}
				if err := st.expect(tc.senders); err != nil {
					t.Fatal(err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			contribute(tc.after)
			if tc.overCap {
				// Refused before anything is allocated for the declared keys.
				var h [peerHeadLen]byte
				binary.LittleEndian.PutUint64(h[:], token)
				binary.LittleEndian.PutUint32(h[8:], 1)
				binary.LittleEndian.PutUint32(h[12:], MaxRelationTuples)
				pc.mu.Lock()
				err := writeV3FrameHeader(pc.bw, framePeerHead, 0, peerHeadLen)
				_, werr := pc.bw.Write(h[:])
				err = errors.Join(err, werr, pc.bw.Flush())
				pc.mu.Unlock()
				if err != nil {
					t.Fatal(err)
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
				if err := st.expect(tc.senders); err == nil || !strings.Contains(err.Error(), "already opened") {
					t.Fatalf("a second open returned %v, want a refusal", err)
				}
			}
		})
	}
}

// TestRetiredSessionFrameIsConnectionFatal pins the retired session frame
// types as what retired type 32 is on the mesh: 11 and 12, the relation head
// and block a pairs or plan job's base and window runs replaced; 18, 19 and
// 33, the PLAN, OPENPEERJOB and STREAMOPEN the one OPEN's kind replaced; 25–27,
// the chunked-relation head, chunk and tail a count job's runs replaced; 28,
// the late sender-count bind; and 38, the window reply the one REPLY
// replaced. A frame the session reader does not know ends the connection,
// and the job in flight on it retires.
func TestRetiredSessionFrameIsConnectionFatal(t *testing.T) {
	ws, addrs := startWorkerSet(t, 1)
	for _, typ := range []byte{11, 12, 18, 19, 25, 26, 27, 28, 33, 38} {
		bw, conn := dialV3(t, addrs[0], "")
		sendOpenJob(t, bw, 1, kindPairs, 0)
		err := errors.Join(writeRel(bw, 1, 1, []join.Key{3}), bw.Flush())
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the worker to register the job", func() bool { return inFlight(ws[0]) == 1 })
		var payload [16]byte
		if err := errors.Join(writeEndFrame(bw, typ, 1, payload[:]), bw.Flush()); err != nil {
			t.Fatal(err)
		}
		expectClosedSilently(t, conn)
		waitFor(t, "the job to retire with its connection", func() bool { return inFlight(ws[0]) == 0 })
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
		if _, err := io.ReadFull(br, prelude(protoVersionSession, "")); err != nil {
			return
		}
		peerJob := map[uint32]bool{}
		for {
			typ, id, n, err := readV3FrameHeader(br)
			if err != nil {
				return
			}
			var o open
			if typ == frameV3Open {
				err = readCtl(br, n, maxOpenPayload, &o)
			} else {
				_, err = io.CopyN(io.Discard, br, int64(n))
			}
			if err != nil {
				return
			}
			switch {
			case typ == frameV3Open:
				peerJob[id] = o.Kind == kindPeer
			case typ == frameV3EOS && peerJob[id]:
				err = writeCtl(bw, frameV3Reply, id, &reply{Final: true, InputR1: routed - 1})
			case typ == frameV3EOS: // the stage-1 job: an empty summary, which Replan ignores
				err = writeCtl(bw, frameV3Reply, id, &reply{})
			case typ == frameV3Plan2:
				err = writeCtl(bw, frameV3Reply, id, &reply{Final: true, Output: routed, PeerCounts: []int64{routed}})
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
		Stats:  &exec.StatsSpec{Cap: 8, Buckets: 4, Seed: 6},
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
