package netexec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdmitterHogCapped is the discriminating fairness test: a hog tenant
// with 16 continuously-backlogged goroutines competes with 8 single-goroutine
// tenants for ONE execution slot. Per-tenant fair queues must cap the hog
// near one tenant's share (1/9 ≈ 11%); any arrival-order (FIFO) dispatch
// would hand it ~16/24 ≈ 67%. The 25% ceiling is loose enough for scheduler
// noise and strict enough that no throughput-proportional policy passes.
func TestAdmitterHogCapped(t *testing.T) {
	a := newAdmitter(AdmissionConfig{MaxInFlight: 1}, func(string) float64 { return 1 })
	var stop atomic.Bool
	counts := make(map[string]*atomic.Int64)
	var wg sync.WaitGroup
	run := func(tenant string, n int) {
		c := &atomic.Int64{}
		counts[tenant] = c
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					rel, err := a.acquire(context.Background(), tenant)
					if err != nil {
						t.Error(err)
						return
					}
					c.Add(1)
					rel()
				}
			}()
		}
	}
	run("hog", 16)
	for i := 0; i < 8; i++ {
		run(fmt.Sprintf("tenant-%d", i), 1)
	}
	// Warm up past the spawn transient (goroutines start staggered, and the
	// early arrivals monopolize the uncontended fast path), then measure a
	// steady-state window.
	time.Sleep(100 * time.Millisecond)
	for _, c := range counts {
		c.Store(0)
	}
	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	var total int64
	for _, c := range counts {
		total += c.Load()
	}
	hogShare := float64(counts["hog"].Load()) / float64(total)
	var s Snapshot
	a.snapshot(&s)
	t.Logf("hog share %.1f%% of %d grants (fastpath %d dispatched %d)", 100*hogShare, total, s.Admission.FastPath, s.Admission.Dispatched)
	if hogShare > 0.25 {
		t.Fatalf("hog took %.0f%% of grants; fair queues should cap it near 11%%", 100*hogShare)
	}
	// And no regular tenant starved: each is owed ~1/9 of the slot.
	fair := float64(total) / 9
	for tn, c := range counts {
		if tn == "hog" {
			continue
		}
		if got := float64(c.Load()); got < fair/2 {
			t.Errorf("%s got %.0f grants, below half its fair share %.0f", tn, got, fair)
		}
	}
}

// TestAdmitterWeightedDispatch checks stride scheduling exactly: with
// backlogged tenants at weights 1, 2 and 4 draining through one slot, every
// window of 7 consecutive grants contains them in 1:2:4 proportion.
func TestAdmitterWeightedDispatch(t *testing.T) {
	weights := map[string]float64{"a": 1, "b": 2, "c": 4}
	a := newAdmitter(AdmissionConfig{MaxInFlight: 1}, func(tn string) float64 { return weights[tn] })

	// Hold the only slot while the backlog builds, so the first release
	// dispatches against fully-populated queues.
	hold, err := a.acquire(context.Background(), "hold")
	if err != nil {
		t.Fatal(err)
	}

	const perTenant = 20
	order := make(chan string) // unbuffered: grants record in dispatch order
	var wg sync.WaitGroup
	for tn := range weights {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tn string) {
				defer wg.Done()
				rel, err := a.acquire(context.Background(), tn)
				if err != nil {
					t.Error(err)
					return
				}
				order <- tn
				rel()
			}(tn)
		}
	}
	for queued(a) < 3*perTenant {
		time.Sleep(time.Millisecond)
	}
	hold()

	counts := map[string]int{}
	for i := 0; i < 28; i++ { // four full 7-grant stride windows
		counts[<-order]++
	}
	if counts["a"] != 4 || counts["b"] != 8 || counts["c"] != 16 {
		t.Fatalf("28 grants split %v; want a:4 b:8 c:16 (1:2:4 weights)", counts)
	}
	go func() { // drain the rest so wg completes
		for range order {
		}
	}()
	wg.Wait()
	close(order)
}

// TestAdmitterQueueFull checks the bounded-queue rejection: with the slot
// held and MaxQueue waiters already queued, the next acquire is refused
// immediately with a typed admission code.
func TestAdmitterQueueFull(t *testing.T) {
	a := newAdmitter(AdmissionConfig{MaxInFlight: 1, MaxQueue: 2}, func(string) float64 { return 1 })
	hold, err := a.acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := a.acquire(context.Background(), "t")
			if err != nil {
				t.Error(err)
				return
			}
			rel()
		}()
	}
	for queued(a) < 2 {
		time.Sleep(time.Millisecond)
	}
	if _, err := a.acquire(context.Background(), "t"); rejectCode(err) != codeAdmission {
		t.Fatalf("acquire over full queue: got %v, want typed admission rejection", err)
	}
	var s Snapshot
	if a.snapshot(&s); s.Admission.Rejected != 1 {
		t.Fatalf("Admission.Rejected = %d, want 1", s.Admission.Rejected)
	}
	hold()
	wg.Wait()
}

// TestAdmitterQueueDeadline checks that a queued job the scheduler cannot
// place before the deadline is rejected with a typed admission code, and that
// the slot holder is unaffected.
func TestAdmitterQueueDeadline(t *testing.T) {
	a := newAdmitter(AdmissionConfig{MaxInFlight: 1, QueueDeadline: 30 * time.Millisecond},
		func(string) float64 { return 1 })
	hold, err := a.acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := a.acquire(context.Background(), "t"); rejectCode(err) != codeAdmission {
		t.Fatalf("expired wait: got %v, want typed admission rejection", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("rejected after %v, before the 30ms deadline", d)
	}
	hold()
	// The freed slot must still be grantable.
	rel, err := a.acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

// TestAdmitterAbandon checks that a waiter whose connection dies mid-wait is
// detached without consuming a slot or wedging dispatch.
func TestAdmitterAbandon(t *testing.T) {
	a := newAdmitter(AdmissionConfig{MaxInFlight: 1}, func(string) float64 { return 1 })
	hold, err := a.acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	ctx, hangUp := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, "t")
		errc <- err
	}()
	for queued(a) < 1 {
		time.Sleep(time.Millisecond)
	}
	hangUp()
	if err := <-errc; err != errAbandoned {
		t.Fatalf("abandoned wait: got %v, want errAbandoned", err)
	}
	hold()
	rel, err := a.acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

// queued is a's count of jobs waiting for a slot.
func queued(a *admitter) int {
	var s Snapshot
	a.snapshot(&s)
	return s.Waiting
}

// TestTenantTableBudget checks the ledger's byte charging: reservations
// accumulate, a charge past the tenant's MaxBytes or the worker's budget is a
// typed quota rejection that reserves nothing, every tenant counts against
// the worker's budget, and credits restore headroom.
func TestTenantTableBudget(t *testing.T) {
	tb := newLedger()
	tb.budget = 0
	tb.set("t", TenantPolicy{MaxBytes: 100})
	if err := tb.charge("t", 60); err != nil {
		t.Fatal(err)
	}
	if err := tb.charge("t", 50); rejectCode(err) != codeQuota {
		t.Fatalf("over-budget charge: got %v, want typed quota rejection", err)
	}
	if got := tb.held; got != 60 {
		t.Fatalf("failed charge mutated usage: %d, want 60", got)
	}
	tb.credit("t", 20)
	if err := tb.charge("t", 50); err != nil {
		t.Fatalf("charge after credit: %v", err)
	}
	tb.credit("t", 90)
	if got := tb.held; got != 0 {
		t.Fatalf("usage after full credit: %d, want 0", got)
	}
	// Unbudgeted tenants (default policy zero) are never rejected.
	if err := tb.charge("other", 1<<40); err != nil {
		t.Fatal(err)
	}
	tb.credit("other", 1<<40)

	// A worker budget bounds every tenant together.
	wb := newLedger()
	wb.budget = 100
	wb.set("t", TenantPolicy{MaxBytes: 60})
	for _, step := range []struct {
		name string
		err  error
		ok   bool
	}{
		{"tenant within both budgets", wb.charge("t", 50), true},
		{"unbudgeted tenant within the worker's", wb.charge("other", 45), true},
		{"tenant within its own, past the worker's", wb.charge("t", 10), false},
		{"unbudgeted tenant past the worker's", wb.charge("other", 6), false},
		{"unbudgeted tenant filling the worker's", wb.charge("other", 5), true},
	} {
		if ok := step.err == nil; ok != step.ok || (!ok && rejectCode(step.err) != codeQuota) {
			t.Fatalf("%s: got %v", step.name, step.err)
		}
	}
	if got := wb.held; got != 100 {
		t.Fatalf("held %d bytes, want 100", got)
	}
	wb.credit("t", 50)
	wb.credit("other", 50)
	if got := wb.held; got != 0 || len(wb.used) != 0 {
		t.Fatalf("after every credit: held %d, by tenant %v", got, wb.used)
	}
}

// TestTenantWeightsFlag covers the fleet-config helper: flag-syntax parsing,
// rendering, and Apply installing weights that the admitter's weight
// resolver observes, budgets carried from the base policy.
func TestTenantWeightsFlag(t *testing.T) {
	tw := TenantWeights{}
	for _, s := range []string{"etl=3", "dash=1", "etl=4"} {
		if err := tw.Set(s); err != nil {
			t.Fatalf("Set(%q): %v", s, err)
		}
	}
	if got := tw.String(); got != "dash=1,etl=4" {
		t.Fatalf("String() = %q, want last-entry-wins sorted rendering", got)
	}
	for _, bad := range []string{"", "noequals", "=3", "x=", "x=0", "x=-1", "x=zz"} {
		if err := tw.Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
	}

	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tw.Apply(w, TenantPolicy{MaxBytes: 512})
	if got := w.tenantWeight("etl"); got != 4 {
		t.Fatalf("applied weight for etl = %v, want 4", got)
	}
	if got := w.tenantWeight("unnamed"); got != 1 {
		t.Fatalf("unconfigured tenant weight = %v, want default 1", got)
	}
	if p := w.ledger.policy("etl"); p.MaxBytes != 512 {
		t.Fatalf("weighted tenant lost base budget: MaxBytes = %d, want 512", p.MaxBytes)
	}
}
