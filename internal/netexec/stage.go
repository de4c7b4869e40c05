package netexec

import (
	"bufio"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ewh/internal/exec"
	"ewh/internal/join"
)

// This file is the coordinator side of the stage-aware pipeline
// (exec.StageRuntime): stage 1 ships as ordinary session jobs, the workers
// re-shuffle their matches directly to each other, and stage 2 opens as
// peer-fed jobs that only receive the driver-owned right relation from the
// coordinator. The intermediate's sole coordinator-side footprint is the
// per-sender count vectors riding the stage-1 final replies; each stage-2
// reply is checked against them, as a worker knows only its transfer's
// sender count.
//
// The stage-1 exchange has two phases: phase A opens the jobs as plan-kind
// OPENs (each carrying the statistics request), each worker joins,
// summarizes its local matches and replies the summary as an interim REPLY;
// the coordinator hands the summaries to the driver's Replan, which builds the
// stage-2 plan from the merged statistics, and phase B broadcasts it in a
// PLAN2 frame (the planio-encoded artifact plus the peer address map) — only
// then do the workers route and stream to their peers. The summaries (a few KB
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
	// From here every failure abandons the opened peer jobs: the cancel
	// releases contributions a peer job has not consumed (a consumed transfer
	// just tombstones its token).
	fail := func(err error) (int64, error) {
		st.abandon(peerJobs)
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
		return peerJobs[p].finishPeerJob(received[p], &wm2[p])
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

// overlap is the stage-overlapped dispatch: the j2 stage-2 peer jobs open
// (each declaring the j1 senders its transfer completes at) and stream their
// coordinator-owned right relation WHILE stage1 runs on the j1 stage-1
// workers — the workers park on the transfer token until every sender has
// contributed. It returns the opened peer jobs once both sides settled; if
// either failed it abandons them.
func (st *stagePipe) overlap(j1, j2 int, stage1 func(w int) error) ([]*subJob, error) {
	peerJobs := make([]*subJob, j2)
	var stage1Err error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // stage 1 takes the extra hop, so the opens get the head start
		defer wg.Done()
		stage1Err = fanOut(j1, stage1)
		st.stage1Done.Store(true)
	}()
	openErr := fanOut(j2, func(p int) (err error) {
		peerJobs[p], err = st.s.conns[p].openPeerJob(st, p)
		return err
	})
	wg.Wait()
	if err := errors.Join(stage1Err, openErr); err != nil {
		// Some workers may already have streamed contributions to their
		// peers; tell every worker to discard the orphaned transfer.
		st.abandon(peerJobs)
		return nil, err
	}
	return peerJobs, nil
}

// abandon tears down sub-jobs parked on the pipeline's transfer token —
// stats-stage jobs awaiting a plan that will never come, peer jobs awaiting
// contributions: the cancel poisons the token, waking them into an error reply
// nobody awaits, and the closes make the read loops drop those replies.
func (st *stagePipe) abandon(jobs []*subJob) {
	st.s.cancelPlan(st.token)
	for _, j := range jobs {
		if j != nil {
			j.close()
		}
	}
}

// runStage1 runs the pipeline's stage 1: phase A collects every worker's
// statistics summary, the driver's Replan turns them into the stage-2 plan,
// and phase B broadcasts it and collects the count vectors. The stage-2 worker count is only known after Replan, so the
// overlapped peer-job opens launch right then — concurrent with phase B,
// which is where the workers route and stream the intermediate. Returns the
// opened peer jobs, one per replanned stage-2 worker.
func (st *stagePipe) runStage1(spec1 join.Spec, first *exec.Job,
	wm1 []exec.WorkerMetrics) ([]*subJob, error) {

	s, next, j1 := st.s, st.next, first.Workers
	if next.Stats == nil || next.Replan == nil {
		return nil, fmt.Errorf("netexec: stage plan without a statistics spec and a replan function")
	}
	jobs := make([]*subJob, j1)
	sums := make([][]byte, j1)
	err := fanOut(j1, func(w int) (err error) {
		o := open{Kind: kindPlan, WorkerID: w, Cond: spec1, Stats: *next.Stats, Token: st.token}
		jobs[w], sums[w], err = s.conns[w].openStatsStageJob(st.id1, &o, first)
		return err
	})
	abandon := func(err error) ([]*subJob, error) {
		st.abandon(jobs)
		return nil, err
	}
	if err != nil {
		return abandon(err)
	}

	// Replan also enforces the pipeline cap off the summaries' exact counts
	// (see exec.RunStagesOver), so a blown cap aborts HERE — before a single
	// intermediate tuple moves.
	plan, j2, err := next.Replan(sums)
	if err != nil {
		return abandon(fmt.Errorf("netexec: stage-2 replanning: %w", err))
	}
	if j2 < 1 || j2 > len(s.conns) {
		return abandon(fmt.Errorf("netexec: replanned stage needs %d workers, session has %d", j2, len(s.conns)))
	}
	if len(plan) == 0 {
		return abandon(fmt.Errorf("netexec: replanning produced an empty plan"))
	}

	peers := s.Addrs()[:j2]
	return st.overlap(j1, j2, func(w int) (err error) {
		p := plan2{Plan: plan, Peers: peers, Self: selfIndex(w, peers)}
		st.counts[w], err = jobs[w].finishStatsStageJob(&p, &wm1[w])
		return err
	})
}

// cancelPlan tells every session worker to discard buffered peer state — and
// wake any plan job still awaiting a PLAN2 — for an abandoned transfer.
// Best-effort: a worker we cannot reach will drop the state when its
// connection dies anyway. The broadcast goes to the whole session because an
// abandoned transfer's state may live on stage-1 senders (stats waiters,
// half-sent contributions) and stage-2 receivers alike.
func (s *Session) cancelPlan(token uint64) {
	for _, c := range s.conns {
		_ = c.locked(func(bw *bufio.Writer) error {
			return writeCtl(bw, frameV3PlanCancel, 0, &cancelRec{Token: token})
		})
	}
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
func (j *subJob) finishStatsStageJob(p *plan2, m *exec.WorkerMetrics) ([]int64, error) {
	defer j.close()
	err := j.send(func(bw *bufio.Writer) error {
		return writeCtl(bw, frameV3Plan2, j.id, p)
	})
	if err != nil {
		return nil, err
	}
	return j.finish(m)
}

// openPeerJob opens one stage-2 sub-job — every stage-1 worker is one of its
// transfer's senders — and streams the coordinator-owned right relation, all
// while stage 1 may still be running on the same connection. The returned
// sub-job stays open; finishPeerJob (or abandon) takes it over once stage 1
// settles.
func (c *sessConn) openPeerJob(st *stagePipe, workerID int) (*subJob, error) {
	j, err := c.open("peer job", st.id2, workerID, 0, nil)
	if err != nil {
		return nil, err
	}
	err = j.send(func(bw *bufio.Writer) error {
		o := open{Kind: kindPeer, WorkerID: workerID, Cond: st.spec2, Token: st.token, Senders: len(st.counts)}
		return writeCtl(bw, frameV3Open, j.id, &o)
	})
	if err == nil {
		err = j.sendPeerRelation(st)
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
	return j.send(func(bw *bufio.Writer) error { return writeV3FrameHeader(bw, frameV3EOS, j.id, 0) })
}

// finishPeerJob awaits an opened peer job's final reply once stage 1
// settled, and checks it against what the stage-1 senders reported routing
// to it — the one place a sender's counts are verified: the worker knows only
// how many senders its transfer has, not what each sent.
func (j *subJob) finishPeerJob(expect int64, m *exec.WorkerMetrics) error {
	defer j.close()
	r, err := j.await("reply", false)
	if err != nil {
		return err
	}
	if r.InputR1 != expect {
		return j.proto(fmt.Errorf("worker joined %d peer tuples, senders reported %d", r.InputR1, expect))
	}
	j.account(r.reply, m)
	return nil
}
