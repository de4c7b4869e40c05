package netexec

import (
	"bufio"
	"errors"
	"fmt"
	"sync/atomic"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/stage"
	"ewh/internal/wire"
)

// This file is the coordinator side of the stage-aware pipeline
// (exec.StageRuntime): stage 1 ships as ordinary session jobs, the workers
// re-shuffle their matches directly to each other as contribution sub-jobs
// (peer.go), and stage 2 opens as peer-fed jobs that only receive the
// driver-owned right relation from the coordinator. The intermediate's sole
// coordinator-side footprint is the per-sender count vectors riding the
// stage-1 final replies; each stage-2 reply is checked against them, as a
// worker knows only its transfer's sender count.
//
// The stage-1 exchange has two phases: phase A opens the jobs as plan-kind
// OPENs (each carrying the statistics request), each worker joins,
// summarizes its local matches and replies the summary as an interim REPLY;
// the coordinator hands the summaries to the driver's Replan, which builds the
// stage-2 plan from the merged statistics, and phase B broadcasts it in a
// PLAN2 frame (the planio-encoded artifact plus the peer address map) — only
// then do the workers route and contribute to their peers. The summaries (a few KB
// each) are the only statistics that ever transit the coordinator.

// RunStages implements exec.StageRuntime over the persistent session.
func (s *Session) RunStages(first *exec.Job, next *exec.PlanJob,
	wm1, wm2 []exec.WorkerMetrics) (int64, error) {

	j1 := first.Workers
	if j1 > len(s.conns) {
		return 0, fmt.Errorf("netexec: stage pipeline needs %d workers, session has %d", j1, len(s.conns))
	}
	if first.Pairs != nil {
		return 0, fmt.Errorf("netexec: a stage pipeline's first job cannot stream pairs")
	}
	spec1, err := join.SpecOf(first.Cond)
	if err != nil {
		return 0, err
	}
	spec2, err := join.SpecOf(next.Cond)
	if err != nil {
		return 0, err
	}

	st := &stagePipe{s: s, token: newPeerToken(), id1: s.ids.Add(1), id2: s.ids.Add(1),
		spec2: spec2, next: next, counts: make([][]int64, j1)}
	peerJobs, err := st.runStage1(spec1, first, wm1)
	if err != nil {
		return 0, err
	}
	j2 := len(peerJobs)
	// From here every failure abandons the opened peer jobs: each one's ABORT
	// retires it, and its retire removes its transfer with the contributions
	// it has not consumed.
	fail := func(err error) (int64, error) {
		abandon(peerJobs)
		return 0, err
	}

	// Sum the per-sender vectors into what each receiver must have joined —
	// the only intermediate metadata the coordinator ever holds. The
	// intermediate SIZE is the stage-1 match total; the vectors carry the
	// routed transfer volume, which exceeds it under replicating schemes
	// (CI fans each tuple out to a full grid row).
	var intermediate int64
	for w := 0; w < j1; w++ {
		intermediate += wm1[w].Output
	}
	received := make([]int64, j2)
	for w, v := range st.counts {
		if len(v) != j2 {
			return fail(fmt.Errorf("netexec: worker %d (%s) reported %d peer counts, plan has %d workers",
				w, s.conns[w].addr, len(v), j2))
		}
		for p, c := range v {
			received[p] += c
		}
	}
	for p, total := range received {
		if total > MaxRelationTuples {
			return fail(fmt.Errorf("netexec: stage-2 worker %d would receive %d tuples, wire limit %d",
				p, total, MaxRelationTuples))
		}
	}

	// The peer jobs opened and received their right relation while stage 1
	// ran; each replies once its transfer completes at its sender count.
	err = fanOut(j2, func(p int) error {
		return peerJobs[p].finishPeerJob(received[p], &wm2[p], next.Stages)
	})
	if err != nil {
		return fail(err)
	}
	return intermediate, nil
}

// stagePipe is one RunStages call's shared state: the transfer token, the two
// stages' job numbers, and what a stage-2 peer open needs.
type stagePipe struct {
	s        *Session
	token    uint64
	id1, id2 uint32
	spec2    join.Spec
	next     *exec.PlanJob
	counts   [][]int64 // per stage-1 sender, its per-receiver routed counts
	// stage1Done: a peer relation ready before it flips counts as overlapped.
	stage1Done atomic.Bool
}

// selfIndex is worker w's own index in the stage-2 address map, -1 when it
// hosts no stage-2 worker.
func selfIndex(w int, peers []string) int {
	if w < len(peers) {
		return w
	}
	return -1
}

// overlap is the stage-overlapped dispatch: the j2 stage-2 peer jobs open,
// each declaring the j1 senders its transfer completes at, and no PLAN2 goes
// out until every open that reached its worker is acknowledged — so a
// contribution always finds its transfer open, or none at all. Then stage1
// runs on the j1 stage-1 workers WHILE the opened peer jobs stream their
// coordinator-owned right relation; the workers park on the transfer token
// until every sender has contributed. An open refused or left unanswered
// past Timeouts.Job fails the pipeline before any PLAN2; one whose
// connection is gone does not, so stage 1's contributions name the dead peer.
// It returns the peer jobs it opened once both sides settled; the caller
// abandons them if either failed.
func (st *stagePipe) overlap(j1, j2 int, stage1 func(w int) error) ([]*subJob, error) {
	peerJobs := make([]*subJob, j2)
	openErr := fanOut(j2, func(p int) (err error) {
		peerJobs[p], err = st.s.conns[p].openPeerJob(st, p)
		return err
	})
	for _, f := range Faults(openErr) {
		if f.Kind != FaultConnLost {
			return peerJobs, openErr
		}
	}
	var stage1Err error
	stage1Done := make(chan struct{})
	go func() {
		defer close(stage1Done)
		stage1Err = fanOut(j1, stage1)
		st.stage1Done.Store(true)
	}()
	relErr := fanOut(j2, func(p int) error {
		if peerJobs[p] == nil {
			return nil
		}
		return peerJobs[p].sendPeerRelation(st)
	})
	<-stage1Done
	return peerJobs, errors.Join(openErr, stage1Err, relErr)
}

// abandon closes sub-jobs parked on the pipeline — stats-stage jobs awaiting
// a plan that will never come or contributing to their peers, peer jobs
// awaiting contributions: each close's ABORT ends the worker's job wherever
// it waits, and it exits silently and retires.
func abandon(jobs []*subJob) {
	for _, j := range jobs {
		if j != nil {
			j.close()
		}
	}
}

// runStage1 runs the pipeline's stage 1: phase A collects every worker's
// statistics summary, the driver's Replan turns them into the stage-2 plan,
// and phase B broadcasts it and collects the count vectors. The stage-2
// worker count is only known after Replan, so the peer jobs open right then,
// ahead of phase B, and take their right relation concurrently with it —
// phase B is where the workers route and contribute the intermediate. Returns
// the opened peer jobs, one per replanned stage-2 worker.
func (st *stagePipe) runStage1(spec1 join.Spec, first *exec.Job,
	wm1 []exec.WorkerMetrics) ([]*subJob, error) {

	s, next, j1 := st.s, st.next, first.Workers
	if next.Replan == nil {
		return nil, fmt.Errorf("netexec: stage plan without a replan function")
	}
	jobs := make([]*subJob, j1)
	sums := make([][]byte, j1)
	err := fanOut(j1, func(w int) (err error) {
		o := open{Kind: kindPlan, WorkerID: w, Cond: spec1, Stats: next.Stats, Token: st.token}
		jobs[w], sums[w], err = s.conns[w].openStatsStageJob(st.id1, &o, first)
		return err
	})
	fail := func(err error) ([]*subJob, error) {
		abandon(jobs)
		return nil, err
	}
	if err != nil {
		return fail(err)
	}

	// Replan also enforces the pipeline cap off the summaries' exact counts
	// (see exec.RunStagesOver), so a blown cap aborts HERE — before a single
	// intermediate tuple moves.
	plan, j2, err := next.Replan(sums)
	if err != nil {
		return fail(fmt.Errorf("netexec: stage-2 replanning: %w", err))
	}
	if j2 < 1 || j2 > len(s.conns) {
		return fail(fmt.Errorf("netexec: replanned stage needs %d workers, session has %d", j2, len(s.conns)))
	}
	if len(plan) == 0 {
		return fail(fmt.Errorf("netexec: replanning produced an empty plan"))
	}

	peers := s.Addrs()[:j2]
	peerJobs, err := st.overlap(j1, j2, func(w int) (err error) {
		p := plan2{Plan: plan, Peers: peers, Self: selfIndex(w, peers)}
		st.counts[w], err = jobs[w].finishStatsStageJob(&p, &wm1[w], first.Stages)
		return err
	})
	if err != nil {
		// Some workers may already have contributed to their peers; the
		// peer jobs' retires discard what their transfers hold.
		abandon(append(jobs, peerJobs...))
		return nil, err
	}
	return peerJobs, nil
}

// openStatsStageJob runs phase A of a stage-1 job: send the job under its
// plan-kind open o and wait for the worker's summary. The sub-job stays open
// for phase B. A worker whose first reply is final instead of a summary
// failed its join.
func (c *sessConn) openStatsStageJob(id uint32, o *open, job *exec.Job) (*subJob, []byte, error) {
	j, err := c.open("stats stage job", id, o.WorkerID, 1, nil)
	if err != nil {
		return nil, nil, err
	}
	err = j.sendJob(o, job)
	var r sessReply
	if err == nil {
		r, err = j.await("statistics summary", true)
	}
	if err == nil && r.Final {
		err = j.proto(fmt.Errorf("worker replied its totals before shipping its statistics summary"))
	}
	if err != nil {
		j.close()
		return nil, nil, err
	}
	return j, r.Summary, nil
}

// finishStatsStageJob runs phase B: deliver the replanned artifact and peer
// map in a PLAN2 frame and wait for the job's final reply (the count
// vector).
func (j *subJob) finishStatsStageJob(p *plan2, m *exec.WorkerMetrics, recs []stage.Record) ([]int64, error) {
	defer j.close()
	err := j.send(func(bw *bufio.Writer) error {
		return writeCtl(bw, wire.Plan2, j.id, p)
	})
	if err != nil {
		return nil, err
	}
	return j.finish(m, recs)
}

// openPeerJob opens one stage-2 sub-job — every stage-1 worker is one of its
// transfer's senders — and awaits the worker's acknowledgment: its transfer
// is open. The returned sub-job stays open: sendPeerRelation ships its
// relation, then finishPeerJob (or abandon) takes it over once stage 1
// settles.
func (c *sessConn) openPeerJob(st *stagePipe, workerID int) (*subJob, error) {
	j, err := c.open("peer job", st.id2, workerID, 1, nil)
	if err != nil {
		return nil, err
	}
	err = j.send(func(bw *bufio.Writer) error {
		o := open{Kind: kindPeer, WorkerID: workerID, Cond: st.spec2, Token: st.token, Senders: len(st.counts)}
		return writeCtl(bw, wire.Open, j.id, &o)
	})
	if err == nil {
		_, err = j.await("acknowledgment", true)
	}
	if err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

// sendPeerRelation ships a peer job's right relation and EOS. R2.Wait() runs
// outside the write lock so stage-1 jobs sharing the connection keep sending
// while the relation still shuffles, and every sub-block takes the lock on its
// own (see sendChunks). Only a chunk stream feeds the worker's join goroutine.
func (j *subJob) sendPeerRelation(st *stagePipe) error {
	rd := st.next.R2.Wait()
	if rd.Chunks == nil {
		return j.proto(fmt.Errorf("a peer job's right relation must be a chunk stream"))
	}
	if !st.stage1Done.Load() {
		j.c.sess.overlapped.Add(1)
	}
	if err := j.sendChunks(j.send, 2, rd.Chunks, true); err != nil {
		return err
	}
	return j.send(func(bw *bufio.Writer) error { return writeFrameHeader(bw, wire.EOS, j.id, 0) })
}

// finishPeerJob awaits an opened peer job's final reply once stage 1
// settled, and checks it against what the stage-1 senders reported routing
// to it — the one place a sender's counts are verified: the worker knows only
// how many senders its transfer has, not what each sent.
func (j *subJob) finishPeerJob(expect int64, m *exec.WorkerMetrics, recs []stage.Record) error {
	defer j.close()
	r, err := j.await("reply", false)
	if err != nil {
		return err
	}
	if r.InputR1 != expect {
		return j.proto(fmt.Errorf("worker joined %d peer tuples, senders reported %d", r.InputR1, expect))
	}
	j.account(r.reply, m, recs)
	return nil
}
