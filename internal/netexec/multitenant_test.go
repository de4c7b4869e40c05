package netexec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/faultnet"
	"ewh/internal/join"
	"ewh/internal/multiway"
	"ewh/internal/partition"
	"ewh/internal/stage"
)

// TestTenantIDFitsThePrelude pins the tenant id's bound at the prelude's u8
// length, in literal bytes: a 255-byte id dials and is admitted under its
// name on the worker, and both places that take an id refuse a 256-byte one.
func TestTenantIDFitsThePrelude(t *testing.T) {
	longest := strings.Repeat("t", 255)
	ws, addrs := startTenantWorkerSet(t, 1, AdmissionConfig{MaxInFlight: 1}, nil)
	sess, err := DialTenant(context.Background(), longest, addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	r1 := randKeys(200, 100, 68)
	if _, err := exec.RunOver(sess, r1, r1, join.Equi{}, partition.NewCI(1), model, exec.Config{Seed: 69}); err != nil {
		t.Fatal(err)
	}
	if got := ws[0].Snapshot().Admission.Granted[longest]; got != 1 {
		t.Fatalf("the %d-byte tenant was granted %d jobs, want 1", len(longest), got)
	}
	tooLong := longest + "t"
	for _, c := range []struct {
		name   string
		refuse func() error
	}{
		{"DialTenant", func() error {
			_, err := DialTenant(context.Background(), tooLong, addrs, Timeouts{})
			return err
		}},
		{"TenantWeights.Set", func() error { return TenantWeights{}.Set(tooLong + "=1") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.refuse(); err == nil || !strings.Contains(err.Error(), "255") {
				t.Fatalf("a %d-byte tenant id: %v, want refused past 255 bytes", len(tooLong), err)
			}
		})
	}
}

// startTenantWorkerSet starts n workers with admission control and tenant
// policies configured before Serve.
func startTenantWorkerSet(t *testing.T, n int, adm AdmissionConfig, policies map[string]TenantPolicy) ([]*Worker, []string) {
	t.Helper()
	leakCheck(t)
	return startWorkers(t, func(w *Worker) {
		w.SetAdmission(adm)
		for tn, p := range policies {
			w.SetTenantPolicy(tn, p)
		}
	}, make([]*faultnet.Script, n)...)
}

// TestSessionTypedQuotaRejection drives a budgeted tenant's over-sized join
// over real sockets and asserts the refusal surfaces as errors.Is ErrQuota,
// the reservation is credited back, and an unbudgeted tenant is unaffected.
func TestSessionTypedQuotaRejection(t *testing.T) {
	ws, addrs := startTenantWorkerSet(t, 1, AdmissionConfig{},
		map[string]TenantPolicy{"small": {MaxBytes: 1024}})
	r1 := randKeys(500, 250, 80) // 4000 key bytes, far over the 1KiB budget
	r2 := randKeys(500, 250, 81)
	scheme := partition.NewCI(1)

	small, err := DialTenant(context.Background(), "small", addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	_, err = exec.RunOver(small, r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 82})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("over-budget join: got %v, want ErrQuota", err)
	}
	if used := ws[0].Snapshot().Holdings.Bytes; used != 0 {
		t.Fatalf("rejected job left %d bytes reserved", used)
	}
	// Its refusal is a final reply like any other: tallied with the time the
	// job spent up to it.
	if tl := ws[0].Snapshot().Jobs["count"]; tl.Finals != 1 || tl.Stages.Total() <= 0 {
		t.Fatalf("the refused count job tallied %+v, want one final carrying its stage time", tl)
	}
	// The same join under an unbudgeted tenant runs to the correct answer.
	free, err := DialTenant(context.Background(), "free", addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer free.Close()
	want := exec.Run(r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 82})
	got, err := exec.RunOver(free, r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output {
		t.Fatalf("output %d, want %d", got.Output, want.Output)
	}
}

// TestSessionTypedAdmissionRejection fills a worker's only execution slot
// (a pair-streaming job whose consumer stalls, so the worker blocks mid-send
// while holding the slot) and its one queue seat, then asserts the next job
// bounces immediately with errors.Is ErrAdmission — and that the queued job
// still completes once the slot frees.
func TestSessionTypedAdmissionRejection(t *testing.T) {
	ws, addrs := startTenantWorkerSet(t, 1,
		AdmissionConfig{MaxInFlight: 1, MaxQueue: 1}, nil)
	scheme := partition.NewCI(1)
	cond := join.NewBand(64) // dense domain: ~129 partners per key, a multi-MB pair stream
	r1 := randKeys(4000, 2000, 90)
	r2 := randKeys(4000, 2000, 91)
	t1, t2 := exec.WrapKeys(r1), exec.WrapKeys(r2)
	want := exec.Run(r1, r2, cond, scheme, model, exec.Config{Seed: 92})

	hog, err := DialTenant(context.Background(), "hog", addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()

	// The hog's emit stalls on the first pair: its read loop stops draining,
	// the worker's pair stream backs up the socket, and the slot stays held
	// until the gate opens.
	gate := make(chan struct{})
	started := make(chan struct{})
	hogDone := make(chan error, 1)
	go func() {
		var streamed int64
		res, err := exec.RunTuplesOver(hog, t1, t2, cond, scheme, model,
			exec.Config{Seed: 92},
			func(w int, a, b exec.Tuple[struct{}]) {
				if streamed == 0 {
					close(started)
					<-gate
				}
				streamed++
			})
		if err == nil && (streamed != want.Output || res.Output != want.Output) {
			err = fmt.Errorf("hog streamed %d pairs, result %d, want %d", streamed, res.Output, want.Output)
		}
		hogDone <- err
	}()
	<-started

	// Second tenant queues behind the held slot (the one queue seat)...
	q1, err := DialTenant(context.Background(), "queued", addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer q1.Close()
	queuedDone := make(chan error, 1)
	go func() {
		_, err := exec.RunOver(q1, r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 93})
		queuedDone <- err
	}()
	waitFor(t, "the job to queue", func() bool { return ws[0].Snapshot().Holdings.Waiting == 1 })
	if h := ws[0].Snapshot().Holdings; h.Running != 1 || h.Waiting != 1 {
		t.Fatalf("the hog and the queued job leave the worker holding %+v, want one slot taken and one job waiting", h)
	}

	// ...so a second job of the same tenant finds the queue full and is
	// refused with a typed rejection, without waiting.
	q2, err := DialTenant(context.Background(), "queued", addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if _, err := exec.RunOver(q2, r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 94}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("job over full queue: got %v, want ErrAdmission", err)
	}
	if s := ws[0].Snapshot().Admission; s.Rejected != 1 {
		t.Fatalf("stats.Rejected = %d, want 1", s.Rejected)
	}

	close(gate)
	if err := <-hogDone; err != nil {
		t.Fatalf("hog job: %v", err)
	}
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued job after slot freed: %v", err)
	}
}

// TestReadLoopAdmissionStampsAdmit pins where a count job's wait for its slot
// lands in its stage record. The read loop admits the job at its open,
// before the job's goroutine starts, with the job's clock running since the
// open: the record shows the wait as Admit, not as the job's first
// FrameWait — whether the slot is granted, or the wait runs past the queue
// deadline and the job is refused. The worker's tally, which takes the
// record of every reply, refused ones too, shows the same.
func TestReadLoopAdmissionStampsAdmit(t *testing.T) {
	const hold = 200 * time.Millisecond
	for _, tc := range []struct {
		name     string
		deadline time.Duration
	}{
		{"granted", 0},
		{"refused past its queue deadline", hold},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws, addrs := startTenantWorkerSet(t, 1, AdmissionConfig{MaxInFlight: 1, QueueDeadline: tc.deadline}, nil)
			// A count job opened on a raw connection takes the one slot and
			// keeps it until the connection hangs up.
			bw, conn := dialV3(t, addrs[0], "")
			sendOpenJob(t, bw, 1, kindCount, 0)
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the held open to take the slot", func() bool { return ws[0].Snapshot().Holdings.Running == 1 })
			sess := dialSession(t, addrs)
			r := randKeys(1000, 500, 70)
			var res *exec.Result
			done := make(chan error, 1)
			go func() {
				var err error
				res, err = exec.RunOver(sess, r, r, join.Equi{}, partition.NewCI(1), model, exec.Config{Seed: 71})
				done <- err
			}()
			waitFor(t, "the count job to queue for the slot", func() bool { return ws[0].Snapshot().Holdings.Waiting == 1 })
			if tc.deadline == 0 {
				time.Sleep(hold)
				_ = conn.Close()
			}
			err := <-done
			tally := ws[0].Snapshot().Jobs["count"]
			switch {
			case tc.deadline == 0 && err != nil:
				t.Fatal(err)
			case tc.deadline != 0 && !errors.Is(err, ErrAdmission):
				t.Fatalf("a count job queued past its deadline: got %v, want ErrAdmission", err)
			case tally.Finals != 1:
				t.Fatalf("count tally %+v, want the one final reply of the queued job", tally)
			case res != nil && res.Stages[0] != tally.Stages:
				t.Fatalf("the REPLY's record %v, the worker tallied %v", res.Stages[0], tally.Stages)
			}
			rec := tally.Stages
			if admit, wait := time.Duration(rec[stage.Admit]), time.Duration(rec[stage.FrameWait]); admit < hold || wait >= hold {
				t.Fatalf("queued %v behind a held slot, the job's record shows Admit %v and FrameWait %v; want the wait as Admit",
					hold, admit, wait)
			}
		})
	}
}

// TestAnonymousSessionUnderAdmission checks that a coordinator whose prelude
// names no tenant is the anonymous tenant and runs normally through an
// admission-controlled worker.
func TestAnonymousSessionUnderAdmission(t *testing.T) {
	ws, addrs := startTenantWorkerSet(t, 1, AdmissionConfig{MaxInFlight: 1}, nil)
	r1 := randKeys(1000, 500, 95)
	r2 := randKeys(1000, 500, 96)
	scheme := partition.NewCI(1)
	sess := dialSession(t, addrs)
	want := exec.Run(r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 97})
	got, err := exec.RunOver(sess, r1, r2, join.Equi{}, scheme, model, exec.Config{Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output {
		t.Fatalf("output %d, want %d", got.Output, want.Output)
	}
	if s := ws[0].Snapshot().Admission; s.Granted[""] == 0 {
		t.Fatalf("anonymous jobs not accounted under tenant \"\": %v", s.Granted)
	}
}

// TestPoolHogFloorOverSockets is the admitter's fair-share floor measured
// where a deployment would feel it: over real sockets, through ONE worker
// with ONE execution slot. A hog tenant spreads itself over many sessions
// (depth 1 each — the read loop blocks in admission, so every connection is
// one standing waiter); T regular tenants hold one session each, pipelined
// deep enough that the next job already sits in the socket when a grant
// frees the connection's read loop. All are weight 1, so the fair share is
// total/(T+1), and every regular tenant must keep at least half of it
// however many connections the hog opens. The run is bounded by the
// worker's own grant count, not a wall window, and the shares are read from
// its AdmissionStats the moment that count is reached. Every job is checked
// against exec.Run; afterwards the fleet is shut down and must be back at
// its baseline.
//
// The sizes make the test discriminate: 10k-row jobs keep the slot, not the
// coordinators' CPU, the bottleneck, and 4·T hog connections put a
// per-connection FIFO's share for a regular tenant at 1/(5T) = 6.7%, well
// under the 12.5% floor (at 2·T it would be 11.1%, a coin flip). Observed:
// ~24% per regular tenant as written, ~8% with dispatch mutated to FIFO.
func TestPoolHogFloorOverSockets(t *testing.T) {
	const (
		regulars = 3 // T
		hogConns = 4 * regulars
		depth    = 12 // a regular tenant's pipelined jobs
		grants   = 400
		distinct = 8 // workloads the jobs cycle through
		rows     = 10000
	)
	b := snapshotBaseline(t)
	ws, addrs := startTenantWorkerSet(t, 1, AdmissionConfig{MaxInFlight: 1}, nil)
	pool, err := NewPool(addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	scheme := partition.NewCI(1)
	type wl struct {
		r1, r2 []join.Key
		cfg    exec.Config
		want   *exec.Result
	}
	wls := make([]wl, distinct)
	for k := range wls {
		s := 7000 + uint64(k)*10
		r1, r2 := randKeys(rows, rows/2, s), randKeys(rows, rows/2, s+1)
		cfg := exec.Config{Seed: s + 2}
		wls[k] = wl{r1, r2, cfg, exec.Run(r1, r2, join.Equi{}, scheme, model, cfg)}
	}

	// The first driver to see the grant count reached freezes the shares.
	var (
		once  sync.Once
		final AdmissionStats
		wg    sync.WaitGroup
		errs  = make(chan error, hogConns+regulars*depth) // one per driver goroutine
	)
	granted := func(st AdmissionStats) (total int64) {
		for _, n := range st.Granted {
			total += n
		}
		return total
	}
	reached := func() bool {
		st := ws[0].Snapshot().Admission
		if granted(st) < grants {
			return false
		}
		once.Do(func() { final = st })
		return true
	}
	drive := func(tenant string, sessions, pipelined int) {
		for si := 0; si < sessions; si++ {
			sess, err := pool.Session(context.Background(), tenant)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < pipelined; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; !reached(); i++ {
						w := wls[(si+c+i)%distinct]
						got, err := exec.RunOver(sess, w.r1, w.r2, join.Equi{}, scheme, model, w.cfg)
						if err != nil {
							errs <- fmt.Errorf("%s: %w", tenant, err)
							return
						}
						if got.Output != w.want.Output || got.Workers[0] != w.want.Workers[0] {
							errs <- fmt.Errorf("%s: got %+v, want %+v", tenant, got.Workers[0], w.want.Workers[0])
							return
						}
					}
				}(c)
			}
		}
	}
	drive("hog", hogConns, 1)
	tenants := []string{"hog"}
	for i := 0; i < regulars; i++ {
		tenants = append(tenants, fmt.Sprintf("tenant-%d", i))
		drive(tenants[i+1], 1, depth)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err) // typed or not: with no queue bound or deadline nothing may be refused
	}

	total := granted(final)
	t.Logf("grants at the count: %v", final.Granted)
	floor := float64(total) / float64(regulars+1) / 2
	for _, tn := range tenants[1:] {
		if got := final.Granted[tn]; float64(got) < floor {
			t.Errorf("%s was granted %d of %d jobs, under the floor %.0f (half an equal share); all grants: %v",
				tn, got, total, floor, final.Granted)
		}
	}
	if final.Rejected != 0 {
		t.Errorf("%d admission rejections with an unbounded queue", final.Rejected)
	}

	workersIdle(t, ws...)
	_ = pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ws[0].Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	b.goroutinesSettled()
}

// TestPoolConcurrentMultiwayPeerIsolated runs two tenants' multiway
// pipelines concurrently over the same admission-controlled fleet: stage-1
// intermediates re-shuffle worker→worker under per-coordinator peer tokens,
// so this is the cross-coordinator token-collision guarantee under real
// interleaving. Each pipeline must match its in-process run exactly with
// zero pairs relayed through either coordinator.
func TestPoolConcurrentMultiwayPeerIsolated(t *testing.T) {
	_, addrs := startTenantWorkerSet(t, 5,
		AdmissionConfig{MaxInFlight: 2, MaxQueue: 64}, nil)
	pool, err := NewPool(addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	build := func(seed uint64) (multiway.Query, core.Options, exec.Config) {
		q := multiway.Query{
			R1: randKeys(600, 150, seed+1),
			Mid: multiway.MidRelation{
				A: randKeys(600, 150, seed+2),
				B: randKeys(600, 150, seed+3),
			},
			R3:    randKeys(600, 150, seed+4),
			CondA: join.NewBand(1),
			CondB: join.Equi{},
		}
		return q, core.Options{J: 5, Model: model, Seed: seed + 5}, exec.Config{Seed: seed + 6}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, tn := range []string{"alpha", "beta"} {
		sess, err := pool.Session(context.Background(), tn)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		wg.Add(1)
		go func(tn string, sess *Session) {
			defer wg.Done()
			for round := uint64(0); round < 3; round++ {
				seed := round*100 + uint64(len(tn)) // distinct per tenant and round
				q, opts, cfg := build(seed)
				local, err := multiway.ExecuteOver(exec.Local{}, q, opts, cfg)
				if err != nil {
					errs <- fmt.Errorf("%s round %d local: %v", tn, round, err)
					return
				}
				dist, err := multiway.ExecuteOver(sess, q, opts, cfg)
				if err != nil {
					errs <- fmt.Errorf("%s round %d: %v", tn, round, err)
					return
				}
				if dist.Output != local.Output || dist.Intermediate != local.Intermediate {
					errs <- fmt.Errorf("%s round %d: out=%d mid=%d, want out=%d mid=%d",
						tn, round, dist.Output, dist.Intermediate, local.Output, local.Intermediate)
					return
				}
			}
			if n := sess.RelayedPairs(); n != 0 {
				errs <- fmt.Errorf("%s: %d pairs relayed through the coordinator", tn, n)
			}
		}(tn, sess)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
