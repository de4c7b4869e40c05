package netexec

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"
)

// This file is the multi-tenant half of the worker: a shared fleet serves
// many coordinators at once, so each worker enforces (a) ADMISSION CONTROL —
// a bounded in-flight-join semaphore with a per-tenant bounded wait queue and
// a queue deadline, dispatched by weighted fair scheduling so no tenant
// starves under a heavy neighbor — and (b) PER-TENANT BYTE BUDGETS, the
// tenant's view of the worker's ledger (ledger.go): every buffer a job holds
// is charged before it is allocated and credited back when the job releases
// it.
//
// A session names its tenant in its connections' prelude (wire.go's prelude);
// "" is the anonymous tenant. Rejections are TYPED end to end: the worker
// replies a REPLY carrying a machine-readable code, and the
// coordinator surfaces it as a WorkerFault matching errors.Is(err,
// ErrAdmission) / errors.Is(err, ErrQuota) — never retried by the
// fault-recovery layer (the worker is healthy; the tenant is over its budget
// or the fleet is saturated), never an OOM or a wedged worker.

// ErrAdmission marks a job the worker refused to run because admission
// control rejected it: the tenant's wait queue was full, or the job waited
// past the queue deadline without a free execution slot. The worker is
// healthy; callers should shed load or back off rather than retry hot.
var ErrAdmission = errors.New("admission rejected")

// ErrQuota marks a job that would have made its worker hold more bytes than
// a budget allows: its tenant's MaxBytes, or the worker's own ledger budget
// (the process's soft memory limit, when one is set). Deterministic for a
// given job size and concurrent load; never retried by the recovery layer.
var ErrQuota = errors.New("tenant quota exceeded")

// Reply codes carried in a REPLY so refusals stay typed across the wire:
// admission and quota rejections; and the two worker job errors the
// coordinator retries, blaming no worker: a draining worker's refusal of a new
// job, and a contribution whose transfer is not open — none opened yet, or
// its stage-2 job retired, as its ABORT retires it once the pipeline attempt
// failed for another reason.
const (
	codeNone      = 0
	codeAdmission = 1
	codeQuota     = 2
	codeDraining  = 3
	codeCancelled = 4
)

// rejectError is a worker-side job failure that must reply with a typed
// rejection code instead of a plain error string.
type rejectError struct {
	code int
	msg  string
}

func (e *rejectError) Error() string { return e.msg }

func admissionErrf(format string, args ...any) *rejectError {
	return &rejectError{code: codeAdmission, msg: fmt.Sprintf(format, args...)}
}

func quotaErrf(format string, args ...any) *rejectError {
	return &rejectError{code: codeQuota, msg: fmt.Sprintf(format, args...)}
}

// rejectCode extracts the typed rejection code from a job error (codeNone
// for ordinary failures).
func rejectCode(err error) int {
	var re *rejectError
	if errors.As(err, &re) {
		return re.code
	}
	return codeNone
}

// maxTenantLen bounds a tenant id, which the prelude leads with a u8 length;
// an id is an accounting key, not a payload.
const maxTenantLen = 255

// AdmissionConfig bounds a worker's concurrent join execution. The zero
// value disables admission control entirely (every job runs immediately, the
// pre-multi-tenant behavior).
type AdmissionConfig struct {
	// MaxInFlight is the number of joins the worker executes concurrently.
	// A job that is fully received while all slots are busy waits in its
	// tenant's queue. <= 0 disables admission control.
	MaxInFlight int
	// MaxQueue bounds each tenant's wait queue; a job arriving with the
	// queue full is rejected immediately with ErrAdmission. <= 0 means
	// unbounded queues (deadline-only shedding).
	MaxQueue int
	// QueueDeadline bounds how long a queued job may wait for a slot before
	// it is rejected with ErrAdmission. 0 means queued jobs wait forever.
	QueueDeadline time.Duration
}

// TenantPolicy is one tenant's resource budget and scheduling weight on a
// worker. The zero value means "no budget, weight 1".
type TenantPolicy struct {
	// Weight is the tenant's share of the worker's execution slots under
	// contention: a weight-3 tenant is dispatched 3× as often as a weight-1
	// tenant when both are backlogged. <= 0 means 1.
	Weight int
	// MaxBytes bounds the bytes the tenant's in-flight and queued jobs may
	// hold on this worker: 8 per key received — a contribution's until the
	// stage-2 job whose transfer it joined has probed it or retired — per
	// re-key column entry and per stage-1 match a plan job materializes.
	// <= 0 means unlimited.
	MaxBytes int64
}

// SetAdmission configures the worker's admission control. Call before Serve.
func (w *Worker) SetAdmission(cfg AdmissionConfig) {
	w.admit = newAdmitter(cfg, w.tenantWeight)
}

// SetTenantPolicy sets one tenant's budget and weight. Call before Serve.
func (w *Worker) SetTenantPolicy(tenant string, p TenantPolicy) {
	w.ledger.set(tenant, p)
}

// SetDefaultTenantPolicy sets the budget and weight applied to tenants
// without an explicit policy (including the anonymous tenant ""). Call
// before Serve.
func (w *Worker) SetDefaultTenantPolicy(p TenantPolicy) {
	w.ledger.setDefault(p)
}

// tenantWeight resolves a tenant's scheduling weight for the admitter.
func (w *Worker) tenantWeight(tenant string) float64 {
	p := w.ledger.policy(tenant)
	if p.Weight <= 0 {
		return 1
	}
	return float64(p.Weight)
}

// admitJob acquires one execution slot for the tenant, waiting in its fair
// queue under the configured bounds. The returned release is idempotent.
// The job's context ending aborts the wait silently (errAbandoned): its ABORT,
// the coordinator hanging up or the worker dying leaves nothing to reply to.
func (w *Worker) admitJob(ctx context.Context, tenant string) (func(), error) {
	if w.admit == nil {
		return func() {}, nil
	}
	return w.admit.acquire(ctx, tenant)
}

// errAbandoned marks a job wait (admission queue, peer transfer, PLAN2, its
// contributions) that ended with the job's context: its ABORT, the
// coordinator hanging up, or Close. The job exits silently, nothing to reply
// to.
var errAbandoned = errors.New("job wait abandoned")

// AdmissionStats is a worker admitter's counters since start (Snapshot).
type AdmissionStats struct {
	// FastPath counts jobs admitted immediately (free slot, empty queues).
	FastPath int64
	// Dispatched counts jobs granted from the wait queues by the fair
	// scheduler.
	Dispatched int64
	// Rejected counts typed admission rejections (queue full or deadline).
	Rejected int64
	// Granted is per-tenant admitted jobs (fast path + dispatched).
	Granted map[string]int64
}

// AdmissionStats is Snapshot().Admission, kept only for the benchmark module
// (ROADMAP item 1's ledger).
func (w *Worker) AdmissionStats() AdmissionStats { return w.Snapshot().Admission }

// admitter is the worker's weighted-fair execution gate: MaxInFlight slots,
// one FIFO wait queue per tenant, dispatch by stride scheduling (each
// tenant's virtual pass advances by 1/weight per dispatched job, the queue
// with the minimum pass goes next), so backlogged tenants share slots in
// proportion to their weights regardless of arrival rates.
type admitter struct {
	cfg       AdmissionConfig
	weightFor func(string) float64

	mu         sync.Mutex
	running    int
	waiting    int     // total queued waiters across tenants
	virt       float64 // virtual time: pass of the most recent dispatch
	queues     map[string]*admitQueue
	fastPath   int64
	dispatched int64
	rejected   int64
	granted    map[string]int64
}

// snapshot reads the admitter's holdings and counters into s under one
// lock; a nil admitter (admission off) leaves them zero.
func (a *admitter) snapshot(s *Snapshot) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s.Running, s.Waiting = a.running, a.waiting
	s.Admission = AdmissionStats{FastPath: a.fastPath, Dispatched: a.dispatched,
		Rejected: a.rejected, Granted: maps.Clone(a.granted)}
}

// admitQueue is one tenant's wait queue plus its stride-scheduling state.
// pass persists across idle periods but is clamped up to the global virtual
// time on re-activation, so an idle tenant neither hoards credit nor is
// penalized for its absence.
type admitQueue struct {
	tenant  string
	pass    float64
	waiters []*admitWaiter
}

type admitWaiter struct {
	q     *admitQueue
	ch    chan error // buffered(1): grant (nil) or typed rejection
	timer *time.Timer
}

func newAdmitter(cfg AdmissionConfig, weightFor func(string) float64) *admitter {
	if cfg.MaxInFlight <= 0 {
		return nil
	}
	return &admitter{cfg: cfg, weightFor: weightFor,
		queues: make(map[string]*admitQueue), granted: make(map[string]int64)}
}

func (a *admitter) queue(tenant string) *admitQueue {
	q, ok := a.queues[tenant]
	if !ok {
		q = &admitQueue{tenant: tenant, pass: a.virt}
		a.queues[tenant] = q
	}
	return q
}

// chargeLocked advances the stride state for one dispatched job of q's
// tenant.
func (a *admitter) chargeLocked(q *admitQueue) {
	if q.pass < a.virt {
		q.pass = a.virt
	}
	a.virt = q.pass
	w := a.weightFor(q.tenant)
	if w <= 0 {
		w = 1
	}
	q.pass += 1 / w
}

// acquire blocks until the tenant is granted an execution slot, its queue
// overflows or its wait exceeds the deadline (typed ErrAdmission), or ctx
// ends the wait (errAbandoned). The returned release is idempotent and must
// be called exactly once per successful acquire.
func (a *admitter) acquire(ctx context.Context, tenant string) (func(), error) {
	a.mu.Lock()
	// Fast path: a free slot and nobody queued ahead — fairness only
	// reorders CONTENDED dispatches, an uncontended worker runs everything
	// immediately.
	if a.running < a.cfg.MaxInFlight && a.waiting == 0 {
		q := a.queue(tenant)
		a.chargeLocked(q)
		a.running++
		a.fastPath++
		a.granted[tenant]++
		a.mu.Unlock()
		return a.releaseFunc(), nil
	}
	q := a.queue(tenant)
	if a.cfg.MaxQueue > 0 && len(q.waiters) >= a.cfg.MaxQueue {
		a.rejected++
		a.mu.Unlock()
		return nil, admissionErrf("tenant %q queue full (%d queued, limit %d)",
			tenant, a.cfg.MaxQueue, a.cfg.MaxQueue)
	}
	wt := &admitWaiter{q: q, ch: make(chan error, 1)}
	q.waiters = append(q.waiters, wt)
	a.waiting++
	if a.cfg.QueueDeadline > 0 {
		d := a.cfg.QueueDeadline
		wt.timer = time.AfterFunc(d, func() {
			a.expire(wt, d)
		})
	}
	a.mu.Unlock()

	select {
	case err := <-wt.ch:
		if err != nil {
			return nil, err
		}
		return a.releaseFunc(), nil
	case <-ctx.Done():
		a.abandon(wt)
		return nil, errAbandoned
	}
}

// releaseFunc returns the idempotent slot release for one granted job.
func (a *admitter) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.running--
			a.dispatchLocked()
			a.mu.Unlock()
		})
	}
}

// dispatchLocked fills free slots from the wait queues in weighted-fair
// order.
func (a *admitter) dispatchLocked() {
	for a.running < a.cfg.MaxInFlight && a.waiting > 0 {
		var best *admitQueue
		for _, q := range a.queues {
			if len(q.waiters) == 0 {
				continue
			}
			// An idle tenant's stale pass is clamped to the virtual time at
			// selection, so comparisons see its effective (re-activated) pass.
			if q.pass < a.virt {
				q.pass = a.virt
			}
			if best == nil || q.pass < best.pass ||
				(q.pass == best.pass && q.tenant < best.tenant) {
				best = q
			}
		}
		if best == nil {
			return
		}
		wt := best.waiters[0]
		best.waiters = best.waiters[1:]
		a.waiting--
		a.chargeLocked(best)
		a.running++
		a.dispatched++
		a.granted[best.tenant]++
		if wt.timer != nil {
			wt.timer.Stop()
		}
		wt.ch <- nil
	}
}

// expire rejects a waiter that outlived the queue deadline. A waiter already
// granted (removed from its queue) is left alone — Stop racing the timer is
// benign because grant/reject both go through queue membership under mu.
func (a *admitter) expire(wt *admitWaiter, d time.Duration) {
	a.mu.Lock()
	if !a.removeLocked(wt) {
		a.mu.Unlock()
		return
	}
	a.rejected++
	a.mu.Unlock()
	wt.ch <- admissionErrf("tenant %q job waited past queue deadline %v", wt.q.tenant, d)
}

// abandon removes a waiter whose session died mid-wait.
func (a *admitter) abandon(wt *admitWaiter) {
	a.mu.Lock()
	removed := a.removeLocked(wt)
	a.mu.Unlock()
	if !removed {
		// Lost the race against a grant: the slot was already assigned to this
		// (now dead) job; give it back.
		if err := <-wt.ch; err == nil {
			a.mu.Lock()
			a.running--
			a.dispatchLocked()
			a.mu.Unlock()
		}
	}
	if wt.timer != nil {
		wt.timer.Stop()
	}
}

// removeLocked detaches wt from its queue; false means it was already
// granted or rejected.
func (a *admitter) removeLocked(wt *admitWaiter) bool {
	for i, c := range wt.q.waiters {
		if c == wt {
			wt.q.waiters = append(wt.q.waiters[:i], wt.q.waiters[i+1:]...)
			a.waiting--
			return true
		}
	}
	return false
}
