package netexec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ewh/internal/exec"
	"ewh/internal/faultnet"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/wire"
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
		Stats:  exec.StatsSpec{Seed: 515},
		Replan: func([][]byte) ([]byte, int, error) { return plan, tableWorkers, nil }}
	_, err = sess.RunStages(first, next,
		make([]exec.WorkerMetrics, tableWorkers), make([]exec.WorkerMetrics, tableWorkers))
	return err
}

func tableStream(sess *Session, in tableInputs) error {
	st, err := sess.OpenStream(exec.StreamSpec{Cond: join.Equi{},
		Stats: exec.StatsSpec{Seed: 520}})
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
		{"plain", tablePlain, wire.StreamBase, 1, 1},
		// The two halves of one stage-1 plan job: its open (its plan-kind
		// OPEN in, its final REPLY out) and its statistics exchange (PLAN2
		// in, the summary's REPLY out).
		{"stage-1 plan", stage1, wire.Open, 1, 3},
		{"stats stage", stage1, wire.Plan2, 1, 1},
		{"peer", func(s *Session, in tableInputs) error {
			// What a peer job buffers is the intermediate: duplicate-heavy
			// stage-1 keys make the block it assembles blow the budget.
			domain := int64(tableSmall)
			if in.big {
				domain = 4
			}
			return tableStages(s, tableSmall, domain, false, in.invalid)
		}, wire.Open, 2, 4},
		{"stream", tableStream, wire.StreamWin, 1, 1},
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
				rule:     &faultnet.Rule{Dir: faultnet.Out, Frame: wire.Reply, N: k.replyN, Conn: 1, Action: faultnet.ActStall},
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
				// Worker 0 is the tapped one.
				ws, addrs := startWorkers(t, func(w *Worker) {
					w.SetTenantPolicy(tableTenant, TenantPolicy{MaxBytes: c.budget})
				}, script, nil)
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
		{"kill its OPEN", faultnet.Rule{Dir: faultnet.In, Frame: wire.Open, Conn: 2, Action: faultnet.ActClose}, true},
		{"hang up mid-run", faultnet.Rule{Dir: faultnet.In, Frame: wire.StreamBase, Conn: 2, Action: faultnet.ActClose}, true},
		{"stall its base", faultnet.Rule{Dir: faultnet.In, Frame: wire.StreamBase, Conn: 2, Action: faultnet.ActStall}, true},
		{"coordinator link dies at the peer OPEN", faultnet.Rule{Dir: faultnet.In, Frame: wire.Open, N: 1, Conn: 1, Action: faultnet.ActClose}, false},
	} {
		t.Run("contribution/"+o.name, func(t *testing.T) {
			b := snapshotBaseline(t)
			script := faultnet.NewScript(o.rule)
			ws, addrs := startWorkers(t, func(w *Worker) { w.SetTimeouts(Timeouts{Job: 300 * time.Millisecond}) }, script, nil)
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
