package netexec

import (
	"math"
	"runtime/debug"
	"sync"
)

// ledger is a worker's one account of the bytes its connections make it hold.
// Every buffer whose size a remote side chose — each key frame's chunk as it
// arrives (a contribution's too), a multi-frame pairs or plan run's one copy,
// a stage-1 plan job's materialized matches — is charged here before it is
// allocated and credited when it is released; no frame only declares a
// count. Tenant budgets (TenantPolicy.MaxBytes) are per-tenant views of the
// one account; a committed contribution stays charged to the plan job's
// tenant until the stage-2 job that probes it recycles it. A refusal is a
// typed quota rejection (ErrQuota) that reserves nothing.
type ledger struct {
	mu       sync.Mutex
	budget   int64 // bytes across every tenant; <= 0: unlimited
	held     int64 // bytes charged across every tenant
	def      TenantPolicy
	policies map[string]TenantPolicy
	used     map[string]int64 // by tenant
}

// newLedger's budget is the process's soft memory limit (GOMEMLIMIT or
// debug.SetMemoryLimit) when one is set, else unlimited.
func newLedger() *ledger {
	l := &ledger{policies: make(map[string]TenantPolicy), used: make(map[string]int64)}
	if lim := debug.SetMemoryLimit(-1); lim < math.MaxInt64 {
		l.budget = lim
	}
	return l
}

func (l *ledger) set(tenant string, p TenantPolicy) {
	l.mu.Lock()
	l.policies[tenant] = p
	l.mu.Unlock()
}

func (l *ledger) setDefault(p TenantPolicy) {
	l.mu.Lock()
	l.def = p
	l.mu.Unlock()
}

func (l *ledger) policy(tenant string) TenantPolicy {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, ok := l.policies[tenant]; ok {
		return p
	}
	return l.def
}

// charge reserves n bytes on tenant's account, within its MaxBytes and the
// worker's budget; credit returns them.
func (l *ledger) charge(tenant string, n int64) error {
	if n <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.policies[tenant]
	if !ok {
		p = l.def
	}
	if used := l.used[tenant]; p.MaxBytes > 0 && used+n > p.MaxBytes {
		return quotaErrf("tenant %q would buffer %d bytes (%d in use), budget %d",
			tenant, used+n, used, p.MaxBytes)
	}
	if l.budget > 0 && l.held+n > l.budget {
		return quotaErrf("worker would hold %d bytes (%d in use), budget %d", l.held+n, l.held, l.budget)
	}
	l.held += n
	l.used[tenant] += n
	return nil
}

func (l *ledger) credit(tenant string, n int64) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	l.held -= n
	if l.used[tenant] -= n; l.used[tenant] <= 0 {
		delete(l.used, tenant)
	}
	l.mu.Unlock()
}
