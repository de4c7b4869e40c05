package netexec

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"ewh/internal/exec"
	"ewh/internal/faultnet"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/planio"
)

// baseline is the one place this package's tests snapshot, and later
// re-check, what a finished scenario must have given back.
type baseline struct {
	t          *testing.T
	goroutines int
}

func snapshotBaseline(t *testing.T) *baseline {
	return &baseline{t: t, goroutines: runtime.NumGoroutine()}
}

// goroutinesSettled asserts the goroutine count is back at the snapshot. The
// +2 allowance absorbs runtime helpers; the poll absorbs teardown races (a
// read loop observing its closed connection).
func (b *baseline) goroutinesSettled() {
	b.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > b.goroutines+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			b.t.Errorf("goroutines leaked: baseline %d, now %d\n%s",
				b.goroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// returned asserts what every sub-job must give back however it ended. With
// the session still open: no reply handler left registered on any connection,
// and the workers idle (workersIdle). Then, with session and workers torn
// down: the goroutine count back at the snapshot.
func (b *baseline) returned(sess *Session, ws []*Worker) {
	b.t.Helper()
	waitFor(b.t, "every connection's pending table to empty", func() bool {
		for _, c := range sess.conns {
			c.mu.Lock()
			n := len(c.pending)
			c.mu.Unlock()
			if n != 0 {
				return false
			}
		}
		return true
	})
	b.workersIdle(ws)
	_ = sess.Close()
	for _, w := range ws {
		_ = w.Close()
	}
	b.goroutinesSettled()
}

// workersIdle asserts the worker side of a finished scenario, connections
// still open: no job left in flight on any worker connection, no byte left in
// any worker's ledger (the tenant's account, the mesh's, anyone's), every
// admission slot free and nobody queued.
func (b *baseline) workersIdle(ws []*Worker) {
	b.t.Helper()
	waitFor(b.t, "every worker connection's in-flight count to reach zero", func() bool {
		for _, w := range ws {
			if inFlight(w) != 0 {
				return false
			}
		}
		return true
	})
	waitFor(b.t, "the ledger to be credited back", func() bool {
		for _, w := range ws {
			if w.ledger.heldBytes() != 0 {
				return false
			}
		}
		return true
	})
	waitFor(b.t, "every admission slot to be given back", func() bool {
		for _, w := range ws {
			if w.admit == nil {
				continue
			}
			w.admit.mu.Lock()
			busy := w.admit.running + w.admit.waiting
			w.admit.mu.Unlock()
			if busy != 0 {
				return false
			}
		}
		return true
	})
}

// inFlight sums the jobs in flight across w's connections.
func inFlight(w *Worker) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	active := 0
	for cs := range w.conns {
		active += cs.active
	}
	return active
}

// TestStreamCloseAfterJobFaultRetiresWorkerJob pins Close's abort: a stream a
// job-level fault broke on a HEALTHY connection (here a quota rejection —
// Collect returns it) still holds a poisoned job, its goroutine and its drain
// accounting on the worker, and Close must retire them. Skipping the
// connection because its fault is sticky left the worker undrainable for as
// long as the session stayed open.
func TestStreamCloseAfterJobFaultRetiresWorkerJob(t *testing.T) {
	ws, addrs := startTenantWorkerSet(t, 1, AdmissionConfig{},
		map[string]TenantPolicy{"small": {MaxBytes: 1024}})
	sess, err := DialTenant(context.Background(), "small", addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream(exec.StreamSpec{Cond: join.Equi{},
		Stats: exec.StatsSpec{Cap: 64, Buckets: 8, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SendBase(1, [][]join.Key{randKeys(500, 250, 90)}); err != nil {
		t.Fatal(err)
	}
	if err := st.SendWindow(0, 1, [][]join.Key{randKeys(10, 250, 91)}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Collect(0, 1); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-budget base: Collect returned %v, want ErrQuota", err)
	}
	if err := st.Close(); !errors.Is(err, ErrQuota) {
		t.Fatalf("Close returned %v, want the stream's sticky ErrQuota", err)
	}
	c := sess.conns[0]
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d reply handlers still registered after Close", pending)
	}
	// The session stays open — as a pooled one would — and the worker must
	// drain anyway: nothing of the stream is left in flight on it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := ws[0].Shutdown(ctx); err != nil {
		t.Fatalf("worker still holds the closed stream's job: Shutdown: %v", err)
	}
	if used := ws[0].ledger.heldBytes(); used != 0 {
		t.Fatalf("closed stream left %d bytes reserved", used)
	}
}

// The return-to-baseline table: every coordinator sub-job kind crossed with
// every way a sub-job can end, each cell asserting baseline.returned.

const (
	tableWorkers = 2
	tableTenant  = "tabled"
	tableBudget  = 16 << 10 // per-worker tenant byte budget in the quota column
	tableSmall   = 200      // keys per relation: far inside the budget
	tableBig     = 8000     // keys per relation: each worker's share blows it
)

// tableInputs is how an outcome bends a kind's inputs: big grows what the
// kind's own sub-job buffers past the tenant budget, invalid plants a
// declaration the coordinator refuses before framing it.
type tableInputs struct{ big, invalid bool }

func (in tableInputs) size() int {
	if in.big {
		return tableBig
	}
	return tableSmall
}

// tableRel wraps one shuffled relation as a resolved job input; rekey makes
// each tuple's own key its re-key column entry (what a plan job needs on
// relation 2), invalid plants a column of no keys, aligned with nothing.
func tableRel(s *exec.KeyShuffle, rekey, invalid bool) *exec.RelFuture {
	rd := exec.RelData{Keys: s}
	switch {
	case invalid:
		rd.Rekey = exec.ShuffleKeys(nil, partition.NewCI(tableWorkers), 1, exec.Config{})
	case rekey:
		rd.Rekey = s
	}
	return exec.ResolvedRelFuture(rd)
}

// tablePlain runs one plain sub-job per worker: a pairs job, the one kind
// whose relations ship whole outside a stage pipeline.
func tablePlain(sess *Session, in tableInputs) error {
	n := in.size()
	s1, s2 := exec.ShufflePair(randKeys(n, int64(n), 500), randKeys(n, int64(n), 501),
		partition.NewCI(tableWorkers), exec.Config{Seed: 502})
	defer s1.Release()
	defer s2.Release()
	job := &exec.Job{Cond: join.Equi{}, Workers: tableWorkers,
		R1: tableRel(s1, false, in.invalid), R2: tableRel(s2, false, false),
		Pairs: func(int, []exec.PairIdx) {}}
	return sess.RunJob(job, make([]exec.WorkerMetrics, tableWorkers))
}

// tableStages drives one two-stage pipeline: n keys drawn from [0, domain) in
// each stage-1 relation, tableSmall in the stage-2 right relation;
// badFirst/badNext plant the invalid declaration in the stage-1 job or the
// peer job's relation — for the latter a flat relation, the one form a peer
// job's relation cannot take.
func tableStages(sess *Session, n int, domain int64, badFirst, badNext bool) error {
	scheme, err := partition.NewHash(tableWorkers, nil)
	if err != nil {
		return err
	}
	plan, err := planio.Encode(&planio.Artifact{Scheme: scheme, Seed: 510})
	if err != nil {
		return err
	}
	cfg := exec.Config{Seed: 511}
	s1, s2 := exec.ShufflePair(randKeys(n, domain, 512), randKeys(n, domain, 513), scheme, cfg)
	defer s1.Release()
	defer s2.Release()
	var r3 exec.RelData
	if keys := randKeys(tableSmall, domain, 514); badNext {
		r3.Keys = exec.ShuffleKeys(keys, scheme, 2, cfg)
		defer r3.Keys.Release()
	} else {
		r3.Chunks = exec.ShuffleKeysChunked(keys, scheme, 2, cfg)
		defer r3.Chunks.Drain() // what a failed pipeline left unsent
	}
	first := &exec.Job{Cond: join.Equi{}, Workers: tableWorkers,
		R1: tableRel(s1, false, badFirst), R2: tableRel(s2, true, false)}
	next := &exec.PlanJob{Cond: join.Equi{}, R2: exec.ResolvedRelFuture(r3),
		Stats:  &exec.StatsSpec{Cap: 64, Buckets: 8, Seed: 515},
		Replan: func([][]byte) ([]byte, int, error) { return plan, tableWorkers, nil }}
	_, err = sess.RunStages(first, next,
		make([]exec.WorkerMetrics, tableWorkers), make([]exec.WorkerMetrics, tableWorkers))
	return err
}

func tableStream(sess *Session, in tableInputs) error {
	st, err := sess.OpenStream(exec.StreamSpec{Cond: join.Equi{},
		Stats: exec.StatsSpec{Cap: 64, Buckets: 8, Seed: 520}})
	if err != nil {
		return err
	}
	shares := func(keys []join.Key) [][]join.Key {
		half := len(keys) / tableWorkers
		return [][]join.Key{keys[:half], keys[half:]}
	}
	window := shares(randKeys(tableSmall, tableSmall, 521))
	if in.invalid {
		window = window[:1] // one share for two workers: refused before the wire
	}
	err = st.SendBase(1, shares(randKeys(in.size(), tableSmall, 522)))
	if err == nil {
		err = st.SendWindow(0, 1, window)
	}
	if err == nil {
		_, err = st.Collect(0, 1)
	}
	return errors.Join(err, st.Close())
}

func TestSubJobsReturnToBaseline(t *testing.T) {
	stage1 := func(s *Session, in tableInputs) error {
		return tableStages(s, in.size(), int64(in.size()), in.invalid, false)
	}
	kinds := []struct {
		name string
		run  func(*Session, tableInputs) error
		// The sendN-th inbound sendFrame is a frame only this kind's send
		// carries: where a connection death lands mid-send. The replyN-th
		// outbound REPLY on the tapped worker is the reply this kind's await
		// is parked on: stalling it starves the liveness deadline. The tapped
		// worker opens a pipeline's stage-1 job, then its stage-2 peer job,
		// and replies the stage-1 summary, its totals, then the peer job's.
		sendFrame     byte
		sendN, replyN int
	}{
		{"plain", tablePlain, faultnet.FrameStreamBase, 1, 1},
		// The two halves of one stage-1 plan job: its open (its plan-kind
		// OPEN in, its final REPLY out) and its statistics exchange (PLAN2
		// in, the summary's REPLY out).
		{"stage-1 plan", stage1, faultnet.FrameOpen, 1, 2},
		{"stats stage", stage1, faultnet.FramePlan2, 1, 1},
		{"peer", func(s *Session, in tableInputs) error {
			// What a peer job buffers is the intermediate: duplicate-heavy
			// stage-1 keys make the block it assembles blow the budget.
			domain := int64(tableSmall)
			if in.big {
				domain = 4
			}
			return tableStages(s, tableSmall, domain, false, in.invalid)
		}, faultnet.FrameOpen, 2, 3},
		{"stream", tableStream, faultnet.FrameStreamWin, 1, 1},
	}
	type cell struct {
		in       tableInputs
		budget   int64
		rule     *faultnet.Rule
		timeouts Timeouts
		check    func(error) bool
	}
	faultKind := func(want FaultKind) func(error) bool {
		return func(err error) bool {
			for _, f := range Faults(err) {
				if f.Kind == want {
					return true
				}
			}
			return false
		}
	}
	for _, k := range kinds {
		outcomes := []struct {
			name string
			cell cell
		}{
			{"success", cell{check: func(err error) bool { return err == nil }}},
			{"worker error reply", cell{in: tableInputs{big: true}, budget: tableBudget,
				check: func(err error) bool { return errors.Is(err, ErrQuota) }}},
			{"validation abort", cell{in: tableInputs{invalid: true},
				check: func(err error) bool {
					// Refused on this side: an error, and no worker to blame.
					for _, f := range Faults(err) {
						if f.RetryableFault() {
							return false
						}
					}
					return err != nil
				}}},
			{"connection death mid-send", cell{
				rule:  &faultnet.Rule{Dir: faultnet.In, Frame: k.sendFrame, N: k.sendN, Action: faultnet.ActClose},
				check: faultKind(FaultConnLost)}},
			{"liveness deadline", cell{
				rule:     &faultnet.Rule{Dir: faultnet.Out, Frame: faultnet.FrameReply, N: k.replyN, Action: faultnet.ActStall},
				timeouts: Timeouts{Job: 300 * time.Millisecond},
				check:    faultKind(FaultTimeout)}},
		}
		for _, o := range outcomes {
			c := o.cell
			t.Run(k.name+"/"+o.name, func(t *testing.T) {
				b := snapshotBaseline(t)
				var script *faultnet.Script
				if c.rule != nil {
					script = faultnet.NewScript(*c.rule)
				}
				ws := make([]*Worker, tableWorkers)
				addrs := make([]string, tableWorkers)
				for i := range ws {
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						// Worker 0 is the tapped one; a nil script is transparent.
						ln = faultnet.Wrap(ln, script)
					}
					w := ListenWorkerOn(ln)
					w.SetTenantPolicy(tableTenant, TenantPolicy{MaxBytes: c.budget})
					ws[i], addrs[i] = w, w.Addr()
					go func() { _ = w.Serve() }()
				}
				sess, err := DialTenant(context.Background(), tableTenant, addrs, c.timeouts)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.run(sess, c.in); !c.check(err) {
					t.Errorf("ended with %v, not as a %s", err, o.name)
				}
				if !script.Fired() {
					t.Error("the scripted fault never fired")
				}
				b.returned(sess, ws)
			})
		}
	}
}

// The worker-side return-to-baseline table: the job kinds the join goroutine
// (stream_worker.go) serves — a pairs job, equi and band count jobs, a
// peer-fed job and a stream — crossed with every way such a job can leave the
// worker, each driven frame by frame over a raw connection and asserting
// workersIdle, a build cache untouched by a failed job, and the goroutine
// count back at the snapshot. The worker has ONE admission slot, so a fed job
// whose goroutine queued for a second slot beside the one its open holds,
// or a peer-fed job that sat on one while parked on its transfer, times out.

const (
	feedTenant = "fed"
	feedBudget = 64 // tenant byte budget in the quota cell: 8 keys
	feedJob    = 7
	otherJob   = 8 // the job that takes the slot while feedJob is parked

	buildSide = 0 // the resident side: a fed job's relation 1, a peer-fed job's relation 2, a stream's epoch-1 base
	probeSide = 1 // a fed job's relation 2, a peer-fed job's mesh transfer, a stream's window 0
)

// feedKind writes one kind's frames: the open, then per side the run's key
// frames and end frame; bad is a build-side data frame the decoder must
// refuse at job level. want is the kind's match count over the table's two
// relations.
type feedKind struct {
	name  string
	pairs bool // a pairs job: it holds its runs to EOS, with no side to seal
	want  int64
	token uint64 // the peer-fed kind's transfer, which its probe side fills
	open  func(bw *bufio.Writer) error
	keys  func(bw *bufio.Writer, side int, keys []join.Key) error
	end   func(bw *bufio.Writer, side, total int) error
	bad   func(bw *bufio.Writer) error
}

// run ships one side's complete run.
func (k feedKind) run(bw *bufio.Writer, side int, keys []join.Key) error {
	return errors.Join(k.keys(bw, side, keys), k.end(bw, side, len(keys)))
}

// chunkFedKind is a job under cond — a count job, or a pairs job
// when pairs — whose relation 1 arrives as base frames and relation 2 as
// window frames, at epoch 0 and window 0.
func chunkFedKind(t *testing.T, name string, cond join.Condition, want int64, pairs bool) feedKind {
	spec, err := join.SpecOf(cond)
	if err != nil {
		t.Fatal(err)
	}
	return feedKind{
		name: name, want: want, pairs: pairs,
		open: func(bw *bufio.Writer) error {
			o := open{Kind: kindCount, Cond: spec}
			if pairs {
				o.Kind = kindPairs
			}
			return writeCtl(bw, frameV3Open, feedJob, &o)
		},
		keys: func(bw *bufio.Writer, side int, keys []join.Key) error {
			if side == buildSide {
				return writeStreamBaseKeys(bw, feedJob, 0, keys)
			}
			return writeStreamWinKeys(bw, feedJob, 0, 0, keys)
		},
		end: func(bw *bufio.Writer, side, total int) error {
			if side == buildSide {
				return writeStreamBaseEnd(bw, feedJob, 0, total)
			}
			return writeStreamWinEnd(bw, feedJob, 0, 0, total)
		},
		bad: func(bw *bufio.Writer) error { // a fed job runs at epoch 0 only
			return writeStreamBaseKeys(bw, feedJob, 1, []join.Key{4})
		},
	}
}

// feedTableKinds builds the kinds against worker w, whose transfer table the
// peer-fed kind's probe side writes straight into — a self-contribution, as a
// stage-1 job on the same worker delivers it.
func feedTableKinds(t *testing.T, w *Worker) []feedKind {
	spec, err := join.SpecOf(join.Equi{})
	if err != nil {
		t.Fatal(err)
	}
	token := newPeerToken()
	return []feedKind{
		// 2×2 matches on key 2, one on key 3.
		chunkFedKind(t, "fed count job", join.Equi{}, 5, false),
		// Build key 1 reaches the two 2s, each 2 the 2s and the 3, 3 the same.
		chunkFedKind(t, "band fed count job", join.NewBand(1), 11, false),
		{
			name: "peer-fed job", want: 5, token: token,
			open: func(bw *bufio.Writer) error {
				return writeCtl(bw, frameV3Open, feedJob, &open{Kind: kindPeer, Cond: spec, Token: token, Senders: 1})
			},
			keys: func(bw *bufio.Writer, side int, keys []join.Key) error {
				if side == probeSide {
					return w.deliverLocal(token, 0, keys)
				}
				return writeStreamBaseKeys(bw, feedJob, 0, keys)
			},
			end: func(bw *bufio.Writer, side, total int) error {
				if side == probeSide {
					return nil // the one sender's contribution completed the transfer
				}
				return writeStreamBaseEnd(bw, feedJob, 0, total)
			},
			bad: func(bw *bufio.Writer) error { // its probe is the mesh, not windows
				return writeStreamWinKeys(bw, feedJob, 0, 0, []join.Key{4})
			},
		}, {
			name: "stream", want: 5,
			open: func(bw *bufio.Writer) error {
				return writeCtl(bw, frameV3Open, feedJob,
					&open{Kind: kindStream, Cond: spec, Stats: exec.StatsSpec{Cap: 64, Buckets: 8, Seed: 1}})
			},
			keys: func(bw *bufio.Writer, side int, keys []join.Key) error {
				if side == buildSide {
					return writeStreamBaseKeys(bw, feedJob, 1, keys)
				}
				return writeStreamWinKeys(bw, feedJob, 0, 1, keys)
			},
			end: func(bw *bufio.Writer, side, total int) error {
				if side == buildSide {
					return writeStreamBaseEnd(bw, feedJob, 1, total)
				}
				return writeStreamWinEnd(bw, feedJob, 0, 1, total)
			},
			bad: func(bw *bufio.Writer) error { // a one-key frame declaring three
				if err := writeV3FrameHeader(bw, frameV3StreamBase, feedJob, streamBaseHdrLen+8); err != nil {
					return err
				}
				_, err := bw.Write([]byte{1, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0})
				return err
			},
		},
		// The equi count's 5 matches, as index pairs.
		chunkFedKind(t, "pairs job", join.Equi{}, 5, true),
	}
}

// awaitFeedMetrics reads job's reply frames up to its final REPLY, skipping
// pairs and a stream's window replies.
func awaitFeedMetrics(t *testing.T, conn net.Conn, br *bufio.Reader, job uint32) reply {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		typ, got, n, err := readV3FrameHeader(br)
		if err != nil {
			t.Fatalf("reading job %d's reply: %v", job, err)
		}
		if got != job {
			t.Fatalf("reply for job %d, want %d", got, job)
		}
		if typ != frameV3Reply {
			if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var m reply
		if err := readCtl(br, n, maxControlPayload, &m); err != nil {
			t.Fatal(err)
		}
		if m.Final {
			return m
		}
	}
}

func TestWorkerFeedReturnsToBaseline(t *testing.T) {
	build := []join.Key{1, 2, 2, 3}
	probe := []join.Key{2, 2, 3, 9}
	eos := func(bw *bufio.Writer) error { return writeV3FrameHeader(bw, frameV3EOS, feedJob, 0) }
	// midBuild leaves the build side part-shipped.
	midBuild := func(k feedKind, bw *bufio.Writer) error {
		return k.keys(bw, buildSide, build)
	}

	// cell is what an exit drives: the kind, the raw connection both ways, and
	// the worker behind it.
	type cell struct {
		k    feedKind
		bw   *bufio.Writer
		br   *bufio.Reader
		conn net.Conn
		w    *Worker
	}
	// Each exit sends its frames after the open. One with a check then reads
	// the job's final REPLY; one without abandoned the job and expects no reply.
	// Only a success cell may grow the build cache. The peerOnly exits are the
	// outcomes of a transfer the other kinds have no counterpart of; a pairs
	// job has no side to seal, so it skips the sealed exit.
	succeeded := func(c cell, m reply) bool { return m.Err == "" && m.Output == c.k.want }
	failedWith := func(code int) func(cell, reply) bool {
		return func(_ cell, m reply) bool { return m.Err != "" && m.Code == code }
	}
	exits := []struct {
		name     string
		budget   int64
		peerOnly bool
		sealed   bool
		send     func(c cell) error
		check    func(c cell, m reply) bool
	}{
		{name: "EOS",
			send: func(c cell) error {
				return errors.Join(c.k.run(c.bw, buildSide, build), c.k.run(c.bw, probeSide, probe), eos(c.bw))
			},
			check: succeeded},
		{name: "ABORT mid-relation",
			send: func(c cell) error {
				return errors.Join(midBuild(c.k, c.bw), writeV3FrameHeader(c.bw, frameV3Abort, feedJob, 0))
			}},
		{name: "connection teardown mid-relation",
			send: func(c cell) error {
				if err := errors.Join(midBuild(c.k, c.bw), c.bw.Flush()); err != nil {
					return err
				}
				// Hang up under a job the worker demonstrably holds.
				waitFor(t, "the worker to register the job", func() bool { return inFlight(c.w) == 1 })
				return c.conn.Close()
			}},
		{name: "refused data frame",
			send: func(c cell) error {
				return errors.Join(midBuild(c.k, c.bw), c.k.bad(c.bw), eos(c.bw))
			},
			check: failedWith(0)},
		{name: "probe keys ahead of the sealed build side", sealed: true,
			send: func(c cell) error {
				return errors.Join(midBuild(c.k, c.bw),
					c.k.keys(c.bw, probeSide, probe), eos(c.bw))
			},
			check: failedWith(0)},
		{name: "tenant quota rejection mid-feed", budget: feedBudget,
			send: func(c cell) error {
				// The first frame fits the budget, the second overruns it.
				return errors.Join(midBuild(c.k, c.bw),
					c.k.keys(c.bw, buildSide, make([]join.Key, feedBudget/8)), eos(c.bw))
			},
			check: failedWith(codeQuota)},
		{name: "parked on its transfer while another job takes the one slot", peerOnly: true,
			send: func(c cell) error {
				// Sealed and parked: the one sender has not contributed yet.
				if err := errors.Join(c.k.run(c.bw, buildSide, build), eos(c.bw), c.bw.Flush()); err != nil {
					return err
				}
				waitFor(t, "the seal to have taken the slot and given it back", func() bool {
					c.w.admit.mu.Lock()
					defer c.w.admit.mu.Unlock()
					return c.w.admit.running == 0 && c.w.admit.fastPath == 1
				})
				// A pairs job now needs the worker's only slot — at its open,
				// in the read loop — and must get it.
				sendOpenJob(t, c.bw, otherJob, kindPairs, 0)
				err := errors.Join(
					writeRel(c.bw, otherJob, 1, []join.Key{2}),
					writeRel(c.bw, otherJob, 2, []join.Key{2}),
					writeV3FrameHeader(c.bw, frameV3EOS, otherJob, 0), c.bw.Flush())
				if err != nil {
					return err
				}
				if m := awaitFeedMetrics(t, c.conn, c.br, otherJob); m.Err != "" || m.Output != 1 {
					t.Errorf("the job beside the parked one replied %+v", m)
				}
				return c.k.run(c.bw, probeSide, probe)
			},
			check: succeeded},
		{name: "a sender past the open's count", peerOnly: true,
			send: func(c cell) error {
				// Sender 1 of a one-sender transfer fails it.
				return errors.Join(c.k.run(c.bw, buildSide, build), eos(c.bw),
					c.w.deliverLocal(c.k.token, 1, probe))
			},
			check: failedWith(0)},
		{name: "a sender never contributes, coordinator hangs up", peerOnly: true,
			send: func(c cell) error {
				err := errors.Join(c.k.run(c.bw, buildSide, build), eos(c.bw), c.bw.Flush())
				if err != nil {
					return err
				}
				waitFor(t, "the worker to register the job", func() bool { return inFlight(c.w) == 1 })
				return c.conn.Close()
			}},
	}

	kinds := feedTableKinds(t, nil)
	for ki := range kinds {
		for _, x := range exits {
			if x.peerOnly && kinds[ki].name != "peer-fed job" || x.sealed && kinds[ki].pairs {
				continue
			}
			t.Run(kinds[ki].name+"/"+x.name, func(t *testing.T) {
				b := snapshotBaseline(t)
				w, err := ListenWorker("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				w.SetAdmission(AdmissionConfig{MaxInFlight: 1})
				w.SetTenantPolicy(feedTenant, TenantPolicy{MaxBytes: x.budget})
				go func() { _ = w.Serve() }()
				defer w.Close()
				cacheBefore := w.BuildCacheStats().Bytes

				bw, conn := dialV3(t, w.Addr(), feedTenant)
				c := cell{k: feedTableKinds(t, w)[ki], bw: bw, br: bufio.NewReader(conn), conn: conn, w: w}
				err = errors.Join(c.k.open(bw), x.send(c))
				if err != nil {
					t.Fatal(err)
				}
				_ = bw.Flush() // a teardown cell already hung up
				if x.check != nil {
					if m := awaitFeedMetrics(t, conn, c.br, feedJob); !x.check(c, m) {
						t.Errorf("replied %+v, not as a %s", m, x.name)
					}
				}
				b.workersIdle([]*Worker{w})
				if grew := w.BuildCacheStats().Bytes - cacheBefore; grew != 0 && x.name != "EOS" {
					t.Errorf("failed job left %d bytes in the build cache", grew)
				}
				_ = conn.Close()
				_ = w.Close()
				b.goroutinesSettled()
			})
		}
	}
}
