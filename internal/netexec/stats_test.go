package netexec

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/stats"
	"ewh/internal/wire"
)

// statsStagePlan builds a stage plan whose Replan runs onReplan over the
// decoded summaries. A nil onReplan ignores them and returns the Hash plan
// for j2 workers: a fixed plan driven through the statistics exchange, so a
// test knows every stage-2 placement in advance.
func statsStagePlan(t *testing.T, cond join.Condition, j2 int, seed uint64,
	onReplan func(sums []*stats.Summary) ([]byte, partition.Scheme, error)) exec.StagePlan {
	t.Helper()
	return exec.StagePlan{
		Cond:       cond,
		MaxWorkers: j2,
		Stats:      exec.StatsSpec{Seed: seed},
		Replan: func(sums []*stats.Summary) ([]byte, partition.Scheme, error) {
			if onReplan != nil {
				return onReplan(sums)
			}
			scheme, err := partition.NewHash(j2, nil)
			if err != nil {
				return nil, nil, err
			}
			b, err := planio.Encode(&planio.Artifact{Scheme: scheme, Seed: seed})
			return b, scheme, err
		},
	}
}

func TestStatsStagePipelineMatchesReference(t *testing.T) {
	// The statistics exchange end to end: each worker's summary must account
	// for exactly its own stage-1 matches, and the join result must match the
	// in-process reference of the plan Replan built bit for bit (the
	// exchange must not perturb execution).
	_, addrs := startWorkerSet(t, 3)
	sess := dialSession(t, addrs)

	r1 := randKeys(1500, 700, 300)
	r2 := randKeys(1200, 700, 301)
	r3 := randKeys(1000, 2500, 302)
	scheme1, err := partition.NewHash(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := exec.Config{Seed: 21, Mappers: 2}
	model := cost.Model{Wi: 1, Wo: 0.2}

	scheme2, err := partition.NewHash(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sums []*stats.Summary
	sp := statsStagePlan(t, join.Equi{}, 3, 77, func(s []*stats.Summary) ([]byte, partition.Scheme, error) {
		sums = s
		b, err := planio.Encode(&planio.Artifact{Scheme: scheme2, Seed: 77})
		return b, scheme2, err
	})
	res1, res2, err := exec.RunStagesOver(sess, r1, r2, rekeyOf(r2),
		join.Equi{}, scheme1, sp, r3, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(res1.Workers) {
		t.Fatalf("%d summaries for %d stage-1 workers", len(sums), len(res1.Workers))
	}
	for w, s := range sums {
		if s.Count != res1.Workers[w].Output {
			t.Fatalf("worker %d summarized %d intermediate tuples, matched %d", w, s.Count, res1.Workers[w].Output)
		}
	}

	_, ref := stageReference(t, r1, r2, r3, scheme1, scheme2, model, cfg)
	if res2.Output != ref.Output {
		t.Fatalf("stage 2 output %d, reference %d", res2.Output, ref.Output)
	}
	for w := range ref.Workers {
		if res2.Workers[w] != ref.Workers[w] {
			t.Fatalf("stage 2 worker %d metrics differ: pipeline %+v reference %+v",
				w, res2.Workers[w], ref.Workers[w])
		}
	}
}

func TestWorkerShutdownMidStatsCollection(t *testing.T) {
	// Shutdown while a worker is parked between shipping its summary and
	// receiving the replanned artifact: the drain must WAIT for the parked
	// job (it is in flight), the pipeline must complete normally once the
	// coordinator answers, and the shutdown must then finish. No goroutines
	// may leak across the whole exchange.
	b := snapshotBaseline(t)
	ws, addrs := startWorkerSet(t, 2)
	// Stage-2 workers are the session's FIRST conns; dialing the to-be-
	// drained worker last keeps it stage-1-only, so the pipeline never needs
	// to open a NEW job on it (a draining worker politely refuses those —
	// its in-flight jobs are what the drain guarantees).
	sess := dialSession(t, []string{addrs[1], addrs[0]})

	r1 := randKeys(800, 400, 310)
	r2 := randKeys(800, 400, 311)
	r3 := randKeys(600, 1500, 312)
	scheme1, err := partition.NewHash(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := exec.Config{Seed: 31, Mappers: 1}
	model := cost.Model{Wi: 1, Wo: 0.2}

	replanEntered := make(chan struct{})
	replanRelease := make(chan struct{})
	sp := statsStagePlan(t, join.Equi{}, 1, 99, func([]*stats.Summary) ([]byte, partition.Scheme, error) {
		close(replanEntered)
		<-replanRelease
		scheme, err := partition.NewHash(1, nil)
		if err != nil {
			return nil, nil, err
		}
		b, err := planio.Encode(&planio.Artifact{Scheme: scheme, Seed: 99})
		return b, scheme, err
	})

	pipelineDone := make(chan error, 1)
	go func() {
		_, _, err := exec.RunStagesOver(sess, r1, r2, rekeyOf(r2),
			join.Equi{}, scheme1, sp, r3, model, cfg)
		pipelineDone <- err
	}()
	<-replanEntered // every worker has summarized and is parked awaiting PLAN2

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- ws[0].Shutdown(ctx)
	}()
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown completed while a stats job was parked: %v", err)
	case <-time.After(200 * time.Millisecond):
	}

	close(replanRelease)
	if err := <-pipelineDone; err != nil {
		t.Fatalf("pipeline across the draining worker: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown after the parked job drained: %v", err)
	}

	_ = sess.Close()
	for _, w := range ws {
		_ = w.Close()
	}
	b.goroutinesSettled()
}

func TestStatsPipelineCapAbortsBeforeReplan(t *testing.T) {
	// The summaries carry exact match counts, so a blown MaxIntermediate
	// must abort BEFORE replanning — no plan is ever built and no
	// intermediate tuple moves worker→worker.
	_, addrs := startWorkerSet(t, 2)
	sess := dialSession(t, addrs)

	r1 := randKeys(400, 100, 330)
	r2 := randKeys(400, 100, 331)
	scheme1, err := partition.NewHash(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	replanned := false
	sp := statsStagePlan(t, join.Equi{}, 2, 7, func([]*stats.Summary) ([]byte, partition.Scheme, error) {
		replanned = true
		return nil, nil, errors.New("must not be reached")
	})
	sp.MaxIntermediate = 1
	_, _, err = exec.RunStagesOver(sess, r1, r2, rekeyOf(r2),
		join.Equi{}, scheme1, sp, r1, cost.Model{Wi: 1, Wo: 0.2},
		exec.Config{Seed: 3, Mappers: 1})
	if err == nil || !strings.Contains(err.Error(), "pipeline cap") {
		t.Fatalf("blown pipeline cap not surfaced: %v", err)
	}
	if replanned {
		t.Fatal("replanning ran for a pipeline past its intermediate cap")
	}
}

func TestStatsReplanErrorCancelsAndDrains(t *testing.T) {
	// A failed replanning must fail the pipeline with the cause and wake
	// every parked worker. No stage-2 job opened, so no worker holds a
	// transfer for the token, and the workers drain instantly.
	ws, addrs := startWorkerSet(t, 2)
	sess := dialSession(t, addrs)

	r1 := randKeys(600, 300, 320)
	r2 := randKeys(600, 300, 321)
	scheme1, err := partition.NewHash(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("replanning exploded")
	sp := statsStagePlan(t, join.Equi{}, 2, 13, func([]*stats.Summary) ([]byte, partition.Scheme, error) {
		return nil, nil, boom
	})
	_, _, err = exec.RunStagesOver(sess, r1, r2, rekeyOf(r2),
		join.Equi{}, scheme1, sp, r1, cost.Model{Wi: 1, Wo: 0.2},
		exec.Config{Seed: 3, Mappers: 1})
	if err == nil || !strings.Contains(err.Error(), "replanning exploded") {
		t.Fatalf("replan failure not surfaced: %v", err)
	}
	for i, w := range ws {
		if h := w.Snapshot().Holdings; h.Transfers != 0 {
			t.Fatalf("worker %d holds %+v after a cancelled stats exchange", i, h)
		}
	}

	// Nothing is parked anymore: the drain must be immediate.
	for _, w := range ws {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := w.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown after cancelled stats exchange: %v", err)
		}
		cancel()
	}
}

// TestAbortAroundThePark pins that a stage-1 plan job's ABORT reaches it amid
// its contributions, once its PLAN2 came: its stage-2 peer takes the
// contribution's prelude and never commits it. The job ends silently — no
// reply — and nothing stays behind with the connection still open: the worker
// holds no job and no byte, and Shutdown returns at once. The ABORT of a job
// parked on its PLAN2 or its transfer is TestWorkerEventOrders'.
func TestAbortAroundThePark(t *testing.T) {
	r1, r2 := []join.Key{1, 2, 3}, []join.Key{2, 3, 4} // two matches
	hash, err := partition.NewHash(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planio.Encode(&planio.Artifact{Scheme: hash, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("amid its contributions", func(t *testing.T) {
		ws, addrs := startWorkerSet(t, 1)
		w := ws[0]
		bw, conn := dialV3(t, addrs[0], "")
		br := bufio.NewReader(conn)
		sendOpenJob(t, bw, 1, kindPlan, newPeerToken())
		err := errors.Join(
			writeRel(bw, 1, 1, r1),
			writeRel(bw, 1, 2, r2), writeRel(bw, 1, 3, r2),
			writeFrameHeader(bw, wire.EOS, 1, 0), bw.Flush())
		if err != nil {
			t.Fatal(err)
		}
		// The stage-2 peer reads the contribution's prelude and then nothing
		// more: its sender waits for a commit that never comes.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		dialed := make(chan net.Conn, 1)
		go func() {
			if c, err := ln.Accept(); err == nil {
				_, _ = io.ReadFull(c, make([]byte, len(wire.Prelude(wire.Version, ""))))
				dialed <- c
			}
		}()
		answerStats(t, conn, br, bw, 1, plan2{Plan: plan, Peers: []string{ln.Addr().String()}, Self: -1})
		select {
		case c := <-dialed:
			defer c.Close()
		case <-time.After(5 * time.Second):
			t.Fatal("the plan job never dialed its stage-2 peer")
		}
		if err := errors.Join(writeFrameHeader(bw, wire.Abort, 1, 0), bw.Flush()); err != nil {
			t.Fatal(err)
		}
		workersIdle(t, w)
		expectNoFrame(t, conn, br)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := w.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	})
}

// expectNoFrame asserts that nothing arrives on a raw connection that is
// still open: reading the next frame header runs into a short deadline.
func expectNoFrame(t *testing.T, conn net.Conn, br *bufio.Reader) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	typ, job, _, err := readFrameHeader(br)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read frame %d for job %d (%v), want nothing on an open connection", typ, job, err)
	}
}
