package main

import (
	"errors"
	"fmt"
	"time"

	"ewh/internal/exec"
	"ewh/internal/join"
)

// The decorators in this file sit at the public seams of the execution
// layers and record spans. They must not change the path the drivers take:
// the drivers pick chunked scatter, the peer-shuffle pipeline, stream jobs
// and fault recovery by asserting optional interfaces on the runtime, so
// every decorator forwards exactly the optional interfaces of what it wraps.

// tracedRuntime spans RunJob on any exec.Runtime, and inside it the wait for
// the job's relation futures to resolve (the end of the scatter).
type tracedRuntime struct {
	inner exec.Runtime
	name  string // span name, e.g. "exec.Local.RunJob"
	tr    *tracer
	// op and parent identify the operation the next call belongs to; the load
	// generator sets them before each operation (one client per wrapper).
	op, parent int
}

func (t *tracedRuntime) at(op, parent int) { t.op, t.parent = op, parent }

func (t *tracedRuntime) Label() string { return t.inner.Label() }

func (t *tracedRuntime) RunJob(job *exec.Job, wm []exec.WorkerMetrics) error {
	id := t.tr.begin(t.name, t.op, t.parent)
	// The driver starts the scatter and calls RunJob at once, so the job
	// begins by waiting for its relations: a child span up to the instant both
	// futures have resolved splits RunJob into scatter and join. A chunked
	// scatter resolves at once and overlaps the join instead.
	sid := t.tr.begin("exec scatter", t.op, id)
	scattered := make(chan struct{})
	go func() {
		defer close(scattered)
		job.R1.Wait()
		job.R2.Wait()
		t.tr.end(sid)
	}()
	err := t.inner.RunJob(job, wm)
	<-scattered // the driver resolves both futures whatever RunJob returned
	t.tr.end(id)
	return err
}

// StreamsChunks forwards exec.ChunkStreamer.
func (t *tracedRuntime) StreamsChunks() bool {
	cs, ok := t.inner.(exec.ChunkStreamer)
	return ok && cs.StreamsChunks()
}

// StreamsChunksFor forwards exec.JobChunkStreamer, with the driver's own
// fallback to the blanket interface for runtimes that only implement that.
func (t *tracedRuntime) StreamsChunksFor(job *exec.Job) bool {
	if jcs, ok := t.inner.(exec.JobChunkStreamer); ok {
		return jcs.StreamsChunksFor(job)
	}
	return t.StreamsChunks()
}

// sessionRuntime is what a netexec session offers beyond exec.Runtime.
type sessionRuntime interface {
	exec.StageRuntime
	exec.StreamRuntime
	exec.FaultTolerantRuntime
}

// tracedSession is tracedRuntime over a session: it adds the stage pipeline,
// stream jobs and survivor views, which the in-process runtime does not have
// and therefore must not appear to have.
type tracedSession struct {
	tracedRuntime
	sess sessionRuntime

	// Stage instants of the RunStages calls seen, for the multiway layers.
	stage1, stage2 []time.Duration
	planBytes      int
}

func newTracedSession(sess sessionRuntime, tr *tracer) *tracedSession {
	return &tracedSession{
		tracedRuntime: tracedRuntime{inner: sess, name: "netexec.Session.RunJob", tr: tr, parent: -1},
		sess:          sess,
	}
}

// RunStages spans the whole two-stage pipeline. Stage 1 ends when the
// transport calls Replan (every stage-1 worker has joined and summarized);
// stage 2 runs from the broadcast of the replanned artifact to the end.
func (t *tracedSession) RunStages(first *exec.Job, next *exec.PlanJob,
	wm1, wm2 []exec.WorkerMetrics) (int64, error) {

	id := t.tr.begin("netexec.Session.RunStages", t.op, t.parent)
	start := time.Now()
	wrapped := *next
	var replanned time.Time
	if next.Replan != nil {
		wrapped.Replan = func(summaries [][]byte) ([]byte, int, error) {
			t.stage1 = append(t.stage1, time.Since(start))
			rid := t.tr.begin("multiway.replan", t.op, id)
			plan, workers, err := next.Replan(summaries)
			t.tr.end(rid)
			t.planBytes = len(plan)
			replanned = time.Now()
			return plan, workers, err
		}
	} else {
		t.planBytes = len(next.Plan)
	}
	inter, err := t.sess.RunStages(first, &wrapped, wm1, wm2)
	if !replanned.IsZero() {
		t.stage2 = append(t.stage2, time.Since(replanned))
	}
	t.tr.end(id)
	return inter, err
}

func (t *tracedSession) OpenStream(spec exec.StreamSpec) (exec.StreamHandle, error) {
	return t.sess.OpenStream(spec)
}

func (t *tracedSession) Survivors() (exec.Runtime, int, error) {
	rt, n, err := t.sess.Survivors()
	if err != nil {
		return nil, 0, err
	}
	sr, ok := rt.(sessionRuntime)
	if !ok {
		return nil, 0, fmt.Errorf("survivor runtime %T is not a session", rt)
	}
	if sr == t.sess {
		return t, n, nil
	}
	return newTracedSession(sr, t.tr), n, nil
}

// errStreamStop ends a time-bounded stream: the stamped handle returns it from
// SendWindow once the recorder says the run is over.
var errStreamStop = errors.New("benchmark: stream run is over")

// streamLoad is the stream workload's load generator seam. streamjoin.Run owns
// the loop over windows, so the only place an operation (one window) can be
// timed, checked and stopped is the StreamHandle it drives. It is in place in
// untraced runs too; with a tracer it also records spans.
type streamLoad struct {
	exec.StreamRuntime
	st *streamState
}

// streamState is shared between a streamLoad and the views Survivors derives.
type streamState struct {
	rec        *recorder
	tr         *tracer
	windowRows int64                  // input tuples of every window
	want       func(window int) int64 // oracle count of a window
	phase      func(window int) int   // which distribution a window is drawn from

	last      time.Time // previous Collect return (or stream open)
	root      int       // current window's root span, -1 until its first seam call
	sawBase   bool      // a SendBase fell into the current gap
	lastPhase int
	seen      int

	flips, replans int
	reshipped      int64
	steady, replan []time.Duration
}

func (l *streamLoad) OpenStream(spec exec.StreamSpec) (exec.StreamHandle, error) {
	st := l.st
	st.last = time.Now()
	st.root = -1
	h, err := l.StreamRuntime.OpenStream(spec)
	if err != nil {
		return nil, err
	}
	return &stampedHandle{h, st}, nil
}

// Survivors forwards exec.FaultTolerantRuntime so fault recovery keeps working
// (and keeps being measured) through the seam.
func (l *streamLoad) Survivors() (exec.Runtime, int, error) {
	ft, ok := l.StreamRuntime.(exec.FaultTolerantRuntime)
	if !ok {
		return nil, 0, fmt.Errorf("runtime %T has no survivor view", l.StreamRuntime)
	}
	rt, n, err := ft.Survivors()
	if err != nil {
		return nil, 0, err
	}
	srt, ok := rt.(exec.StreamRuntime)
	if !ok {
		return nil, 0, fmt.Errorf("survivor runtime %T cannot host stream jobs", rt)
	}
	return &streamLoad{srt, l.st}, n, nil
}

// span opens a child of the current window's root span, opening the root
// first — back-dated to the previous Collect return, where the window's gap
// began — if this is the gap's first seam call.
func (st *streamState) span(name string) int {
	if st.root < 0 {
		st.root = st.tr.beginAt(st.last, "stream window", st.seen, -1)
	}
	return st.tr.begin(name, st.seen, st.root)
}

type stampedHandle struct {
	exec.StreamHandle
	st *streamState
}

func (h *stampedHandle) SendBase(epoch uint32, shares [][]join.Key) error {
	st := h.st
	id := st.span("stream.SendBase")
	err := h.StreamHandle.SendBase(epoch, shares)
	st.tr.end(id)
	st.sawBase = true
	if epoch > 1 {
		st.replans++
	}
	for _, s := range shares {
		st.reshipped += int64(len(s))
	}
	return err
}

func (h *stampedHandle) SendWindow(window, epoch uint32, shares [][]join.Key) error {
	st := h.st
	if !st.rec.more() {
		return errStreamStop
	}
	p := st.phase(int(window))
	if st.seen > 0 && p != st.lastPhase {
		st.flips++
	}
	st.lastPhase = p
	id := st.span("stream.SendWindow")
	err := h.StreamHandle.SendWindow(window, epoch, shares)
	st.tr.end(id)
	return err
}

func (h *stampedHandle) Collect(window, epoch uint32) ([]exec.WindowReply, error) {
	st := h.st
	id := st.span("stream.Collect")
	replies, err := h.StreamHandle.Collect(window, epoch)
	st.tr.end(id)
	st.tr.end(st.root)
	now := time.Now()
	gap := now.Sub(st.last)
	st.last = now

	var count, input int64
	var makespan float64
	for _, r := range replies {
		count += r.Count
		input += r.Input
		makespan = max(makespan, model.Weight(float64(r.Input), float64(r.Count)))
	}
	ideal := model.Weight(float64(input), float64(count)) / joiners
	st.rec.done(gap, opStats{tuples: st.windowRows, network: input, imbNum: makespan, imbDen: ideal},
		checked(count, st.want(int(window)), err))
	if st.sawBase {
		st.replan = append(st.replan, gap)
	} else {
		st.steady = append(st.steady, gap)
	}
	st.sawBase = false
	st.seen++
	st.root = -1
	return replies, err
}
