package netexec

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/faultnet"
	"ewh/internal/join"
	"ewh/internal/multiway"
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
// and every worker holding nothing (workersIdle). Then, with session and
// workers torn down: the goroutine count back at the snapshot.
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
	workersIdle(b.t, ws...)
	_ = sess.Close()
	for _, w := range ws {
		_ = w.Close()
	}
	b.goroutinesSettled()
}

// workersIdle waits until every worker of ws holds nothing (Holdings): no job
// in flight, no byte charged to any tenant, no transfer open, no admission
// slot taken or waited for.
func workersIdle(t *testing.T, ws ...*Worker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, w := range ws {
		for h := w.Snapshot().Holdings; h != (Holdings{}); h = w.Snapshot().Holdings {
			if time.Now().After(deadline) {
				t.Fatalf("worker %s still holds %+v", w.Addr(), h)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
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
	if used := ws[0].Snapshot().Holdings.Bytes; used != 0 {
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
		// The sendN-th inbound sendFrame on the coordinator's connection to
		// the tapped worker (its first: Conn 1, apart from a peer's
		// contribution session) is a frame only this kind's send carries:
		// where a connection death lands mid-send. The replyN-th REPLY on it
		// is the reply this kind's await is parked on: stalling it starves
		// the liveness deadline. The tapped worker opens a pipeline's stage-1
		// job, then its stage-2 peer job, and replies the stage-1 summary, the
		// peer open's acknowledgment, the stage-1 totals, then the peer job's.
		sendFrame     byte
		sendN, replyN int
	}{
		{"plain", tablePlain, faultnet.FrameStreamBase, 1, 1},
		// The two halves of one stage-1 plan job: its open (its plan-kind
		// OPEN in, its final REPLY out) and its statistics exchange (PLAN2
		// in, the summary's REPLY out).
		{"stage-1 plan", stage1, faultnet.FrameOpen, 1, 3},
		{"stats stage", stage1, faultnet.FramePlan2, 1, 1},
		{"peer", func(s *Session, in tableInputs) error {
			// What a peer job buffers is the intermediate: duplicate-heavy
			// stage-1 keys make the block it assembles blow the budget.
			domain := int64(tableSmall)
			if in.big {
				domain = 4
			}
			return tableStages(s, tableSmall, domain, false, in.invalid)
		}, faultnet.FrameOpen, 2, 4},
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
				rule:  &faultnet.Rule{Dir: faultnet.In, Frame: k.sendFrame, N: k.sendN, Conn: 1, Action: faultnet.ActClose},
				check: faultKind(FaultConnLost)}},
			{"liveness deadline", cell{
				rule:     &faultnet.Rule{Dir: faultnet.Out, Frame: faultnet.FrameReply, N: k.replyN, Conn: 1, Action: faultnet.ActStall},
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

	// The contribution row. Stage 1 runs on worker 1 alone, so the tapped
	// worker 0 hosts stage 2 only and accepts two connections: the
	// coordinator's, then worker 1's contribution session, whose frames the
	// first rules strike (Conn 2). Worker 1's deadline is the workers' own
	// Timeouts.Job; the plan job fails naming worker 0. When the coordinator's
	// link dies at the peer OPEN instead, worker 0 never opens the transfer:
	// worker 1's contribution is refused there, cancelled, and the pipeline
	// fails. Either way every worker holds nothing — no byte charged, no
	// transfer left, no job in flight — but for a stalled receiver's
	// contribution, which it holds until it closes.
	for _, o := range []struct {
		name      string
		rule      faultnet.Rule
		peerFault bool // the plan job fails naming worker 0
	}{
		{"kill its OPEN", faultnet.Rule{Dir: faultnet.In, Frame: faultnet.FrameOpen, Conn: 2, Action: faultnet.ActClose}, true},
		{"hang up mid-run", faultnet.Rule{Dir: faultnet.In, Frame: faultnet.FrameStreamBase, Conn: 2, Action: faultnet.ActClose}, true},
		{"stall its base", faultnet.Rule{Dir: faultnet.In, Frame: faultnet.FrameStreamBase, Conn: 2, Action: faultnet.ActStall}, true},
		{"coordinator link dies at the peer OPEN", faultnet.Rule{Dir: faultnet.In, Frame: faultnet.FrameOpen, N: 1, Conn: 1, Action: faultnet.ActClose}, false},
	} {
		t.Run("contribution/"+o.name, func(t *testing.T) {
			b := snapshotBaseline(t)
			script := faultnet.NewScript(o.rule)
			ws := make([]*Worker, tableWorkers)
			addrs := make([]string, tableWorkers)
			for i := range ws {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					ln = faultnet.Wrap(ln, script)
				}
				w := ListenWorkerOn(ln)
				w.SetTimeouts(Timeouts{Job: 300 * time.Millisecond})
				ws[i], addrs[i] = w, w.Addr()
				go func() { _ = w.Serve() }()
			}
			// The coordinator's own deadline is the backstop: were the
			// sender's to fail, worker 1 would take the blame.
			sess, err := DialTenant(context.Background(), tableTenant,
				[]string{addrs[1], addrs[0]}, Timeouts{Job: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			scheme1, err := partition.NewHash(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := randKeys(tableSmall, tableSmall, 530)
			_, _, err = exec.RunStagesOver(sess, r, r, r, join.Equi{}, scheme1,
				statsStagePlan(t, join.Equi{}, tableWorkers, 531, nil), nil, model, exec.Config{Seed: 532})
			blamed := false
			for _, f := range Faults(err) {
				blamed = blamed || f.Kind == FaultPeer && f.Addr == addrs[0]
			}
			if err == nil || o.peerFault && !blamed {
				t.Errorf("ended with %v, not as a failure (peer fault naming %s: %v)", err, addrs[0], o.peerFault)
			}
			if !script.Fired() {
				t.Error("the scripted fault never fired")
			}
			// Nothing is held anywhere, but by a stalled receiver: the
			// contribution's OPEN reached it ahead of the stalled frame, so it
			// holds that job, and only that, until it closes.
			var want Holdings
			if o.rule.Action == faultnet.ActStall {
				want.Jobs = 1
			}
			waitFor(t, "the workers to give back what the pipeline took", func() bool {
				return ws[0].Snapshot().Holdings == want && ws[1].Snapshot().Holdings == Holdings{}
			})
			_ = sess.Close()
			for _, w := range ws {
				_ = w.Close()
			}
			workersIdle(t, ws...)
			b.goroutinesSettled()
		})
	}
}

// The worker-side return-to-baseline table: the job kinds the join goroutine
// (stream_worker.go) serves — a pairs job, equi and band count jobs, a
// peer-fed job and a stream — crossed with every way such a job can leave the
// worker, each driven frame by frame over a raw connection and asserting
// workersIdle, a build cache untouched by a failed job and grown by a
// completed count job, and the goroutine count back at the snapshot. The worker has ONE admission slot, so a fed job
// whose goroutine queued for a second slot beside the one its open holds,
// or a peer-fed job that sat on one while parked on its transfer, times out.

const (
	feedTenant = "fed"
	feedBudget = 64 // tenant byte budget in the quota cell: 8 keys
	feedJob    = 7
	otherJob   = 8 // the job that takes the slot while feedJob is parked

	buildSide = 0 // the resident side: a fed job's relation 1, a peer-fed job's relation 2, a stream's epoch-1 base
	probeSide = 1 // a fed job's relation 2, a peer-fed job's transfer, a stream's window 0
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
	open  func(bw *bufio.Writer, conn net.Conn, br *bufio.Reader) error
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
		open: func(bw *bufio.Writer, _ net.Conn, _ *bufio.Reader) error {
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
			// The open is acknowledged before the probe side's
			// self-contribution can find its transfer.
			open: func(bw *bufio.Writer, conn net.Conn, br *bufio.Reader) error {
				if ack := sendPeerOpen(t, conn, br, bw, feedJob, token, 1); ack.Err != "" {
					return errors.New(ack.Err)
				}
				return nil
			},
			keys: func(bw *bufio.Writer, side int, keys []join.Key) error {
				if side == probeSide {
					return w.deliverLocal(token, 0, feedTenant, keys)
				}
				return writeStreamBaseKeys(bw, feedJob, 0, keys)
			},
			end: func(bw *bufio.Writer, side, total int) error {
				if side == probeSide {
					return nil // the one sender's contribution completed the transfer
				}
				return writeStreamBaseEnd(bw, feedJob, 0, total)
			},
			bad: func(bw *bufio.Writer) error { // its probe is the transfer, not windows
				return writeStreamWinKeys(bw, feedJob, 0, 0, []join.Key{4})
			},
		}, {
			name: "stream", want: 5,
			open: func(bw *bufio.Writer, _ net.Conn, _ *bufio.Reader) error {
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
				waitFor(t, "the worker to register the job", func() bool { return c.w.Snapshot().Holdings.Jobs == 1 })
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
		{name: "tenant quota rejection, then the run's end frame", budget: feedBudget,
			send: func(c cell) error {
				// The end frame still reaches the goroutine, which must not seal
				// (and publish) the side it failed on.
				over := make([]join.Key, feedBudget/8)
				return errors.Join(midBuild(c.k, c.bw), c.k.keys(c.bw, buildSide, over),
					c.k.end(c.bw, buildSide, len(build)+len(over)), eos(c.bw))
			},
			check: failedWith(codeQuota)},
		{name: "parked on its transfer while another job takes the one slot", peerOnly: true,
			send: func(c cell) error {
				// Sealed and parked: the one sender has not contributed yet.
				if err := errors.Join(c.k.run(c.bw, buildSide, build), eos(c.bw), c.bw.Flush()); err != nil {
					return err
				}
				waitFor(t, "the seal to have taken the slot and given it back", func() bool {
					s := c.w.Snapshot()
					return s.Admission.FastPath == 1 && s.Running == 0
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
				// Sender 1 of a one-sender transfer is refused and fails it.
				err := errors.Join(c.k.run(c.bw, buildSide, build), eos(c.bw))
				if c.w.deliverLocal(c.k.token, 1, feedTenant, probe) == nil {
					err = errors.Join(err, errors.New("sender 1 of a one-sender transfer was taken"))
				}
				return err
			},
			check: failedWith(0)},
		{name: "a sender never contributes, coordinator hangs up", peerOnly: true,
			send: func(c cell) error {
				err := errors.Join(c.k.run(c.bw, buildSide, build), eos(c.bw), c.bw.Flush())
				if err != nil {
					return err
				}
				waitFor(t, "the worker to register the job", func() bool { return c.w.Snapshot().Holdings.Jobs == 1 })
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
				cacheBefore := w.Snapshot().Cache.Bytes

				bw, conn := dialV3(t, w.Addr(), feedTenant)
				c := cell{k: feedTableKinds(t, w)[ki], bw: bw, br: bufio.NewReader(conn), conn: conn, w: w}
				err = errors.Join(c.k.open(bw, conn, c.br), x.send(c))
				if err != nil {
					t.Fatal(err)
				}
				_ = bw.Flush() // a teardown cell already hung up
				if x.check != nil {
					if m := awaitFeedMetrics(t, conn, c.br, feedJob); !x.check(c, m) {
						t.Errorf("replied %+v, not as a %s", m, x.name)
					}
				}
				workersIdle(t, w)
				// Only a count job's side is cached, hash or table alike, and
				// only a completed one.
				grew := w.Snapshot().Cache.Bytes - cacheBefore
				switch counted := strings.HasSuffix(c.k.name, "count job"); {
				case x.name != "EOS" && grew != 0:
					t.Errorf("failed job left %d bytes in the build cache", grew)
				case x.name == "EOS" && counted && grew <= 0:
					t.Errorf("the count job's sealed side left no entry in the build cache")
				}
				_ = conn.Close()
				_ = w.Close()
				b.goroutinesSettled()
			})
		}
	}
}

// TestSnapshotTalliesEveryReply runs one job of each kind over a two-worker
// fleet under admission — a count, a pairs, a multiway (a plan, a peer and a
// contribution on each worker) and a stream of k windows — and then parks a
// peer job on worker 0 and ABORTs it. The workers are fresh, so their
// Snapshots are the run's delta: one final reply per job, the stream's k
// window replies beside its final, nothing for the abandoned job, a slot
// for every seal, probe and count or pairs or plan open, and nothing held.
func TestSnapshotTalliesEveryReply(t *testing.T) {
	const k = 3
	ws, addrs := startTenantWorkerSet(t, 2, AdmissionConfig{MaxInFlight: 2, MaxQueue: 64}, nil)
	sess := dialSession(t, addrs)
	hash, err := partition.NewHash(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := randKeys(2000, 1000, 1), randKeys(2000, 1000, 2)
	cfg := exec.Config{Seed: 3}
	count, err := exec.RunOver(sess, r1, r2, join.Equi{}, hash, model, cfg)
	if err != nil {
		t.Fatalf("count job: %v", err)
	}
	t1, t2 := make([]exec.Tuple[int], len(r1)), make([]exec.Tuple[int], len(r2))
	for i := range r1 {
		t1[i], t2[i] = exec.Tuple[int]{Key: r1[i]}, exec.Tuple[int]{Key: r2[i]}
	}
	_, err = exec.RunTuplesOver(sess, t1, t2, join.Equi{}, hash, model, cfg, func(int, exec.Tuple[int], exec.Tuple[int]) {})
	if err != nil {
		t.Fatalf("pairs job: %v", err)
	}
	q := multiway.Query{R1: r1, Mid: multiway.MidRelation{A: r2, B: randKeys(2000, 1000, 4)},
		R3: randKeys(2000, 1000, 5), CondA: join.Equi{}, CondB: join.NewBand(1)}
	mw, err := multiway.ExecuteOver(sess, q, core.Options{J: 2, Model: model, Seed: 6}, cfg)
	if err != nil {
		t.Fatalf("multiway job: %v", err)
	}
	if len(mw.Stages[0].Exec.Workers) != 2 || len(mw.Stages[1].Exec.Workers) != 2 {
		t.Fatalf("the pipeline ran on %d and %d workers, want both stages on both",
			len(mw.Stages[0].Exec.Workers), len(mw.Stages[1].Exec.Workers))
	}
	st, err := sess.OpenStream(exec.StreamSpec{Cond: join.Equi{}, Stats: exec.StatsSpec{Cap: 64, Buckets: 8, Seed: 7}})
	if err == nil {
		err = st.SendBase(1, [][]join.Key{r2[:1000], r2[1000:]})
	}
	for win := range uint32(k) {
		if err == nil {
			err = st.SendWindow(win, 1, [][]join.Key{r1[:100], r1[100:200]})
		}
		if err == nil {
			_, err = st.Collect(win, 1)
		}
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	// The abandoned job: sealed, parked past its EOS on a transfer no sender
	// feeds, then ABORTed.
	bw, conn := dialV3(t, addrs[0], "")
	br := bufio.NewReader(conn)
	if ack := sendPeerOpen(t, conn, br, bw, 1, newPeerToken(), 1); ack.Err != "" {
		t.Fatalf("the peer open was refused: %+v", ack)
	}
	err = errors.Join(writeRel(bw, 1, 1, r1[:10]), writeV3FrameHeader(bw, frameV3EOS, 1, 0),
		writeV3FrameHeader(bw, frameV3Abort, 1, 0), bw.Flush())
	if err != nil {
		t.Fatal(err)
	}
	workersIdle(t, ws...)

	for i, w := range ws {
		s := w.Snapshot()
		if s.Holdings != (Holdings{}) {
			t.Errorf("worker %d holds %+v at rest", i, s.Holdings)
		}
		for kind, tl := range s.Jobs {
			replies := int64(1)
			if kind == "stream" {
				replies = k + 1
			}
			if tl.Finals != 1 || tl.Replies != replies {
				t.Errorf("worker %d tallied %d replies, %d final, of its %s job; want %d, 1",
					i, tl.Replies, tl.Finals, kind, replies)
			}
			if tl.Stages.Total() <= 0 {
				t.Errorf("worker %d's %s replies carried no time", i, kind)
			}
		}
		if len(s.Jobs) != int(numKinds) {
			t.Errorf("worker %d tallies %d job kinds, want %d", i, len(s.Jobs), numKinds)
		}
		if got := s.Jobs["count"].Stages; got != count.Stages[i] {
			t.Errorf("worker %d tallied %v for its count job, whose reply carried %v", i, got, count.Stages[i])
		}
		// A slot per count, pairs and plan open, per seal (a peer job's, the
		// stream's, and worker 0's abandoned job's) and per probe (a peer
		// job's, each stream window's).
		slots := int64(1 + 1 + 1 + 2 + 1 + k)
		if i == 0 {
			slots++
		}
		if a := s.Admission; a.FastPath+a.Dispatched != slots || a.Rejected != 0 {
			t.Errorf("worker %d admitted %+v, want %d slots taken", i, a, slots)
		}
	}
}
