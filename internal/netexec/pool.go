package netexec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Pool is the coordinator-side handle on a SHARED worker fleet: one fixed
// set of worker addresses that any number of concurrent coordinators draw
// sessions from, each under its own tenant identity. The pool itself holds
// no connections — every Session dials its own persistent per-worker
// connections (the session protocol multiplexes that tenant's jobs over them) —
// but it is the bookkeeping point: it validates fleet capacity, tracks the
// sessions it issued so Close can hang up a whole service at once, and
// counts per-tenant sessions for introspection.
//
// Worker-side policy (admission control, fair scheduling, quotas) lives in
// the fleet's Worker processes (SetAdmission, SetTenantPolicy); the pool is
// deliberately thin because the workers must enforce policy against EVERY
// coordinator, including ones that bypass any coordinator-side layer.
type Pool struct {
	addrs []string
	t     Timeouts

	mu     sync.Mutex
	open   map[*Session]string // session → tenant
	closed bool
}

// NewPool wraps a worker fleet's addresses as a shared pool. The timeouts
// apply to every session dialed through it.
func NewPool(addrs []string, t Timeouts) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("netexec: pool needs at least one worker address")
	}
	return &Pool{
		addrs: append([]string(nil), addrs...),
		t:     t,
		open:  make(map[*Session]string),
	}, nil
}

// Workers returns the fleet size.
func (p *Pool) Workers() int { return len(p.addrs) }

// Addrs returns a copy of the fleet's addresses.
func (p *Pool) Addrs() []string { return append([]string(nil), p.addrs...) }

// Session dials a new tenant session over the whole fleet. The session is
// tracked until its Close (or the pool's).
func (p *Pool) Session(ctx context.Context, tenant string) (*Session, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("netexec: pool closed")
	}
	p.mu.Unlock()
	s, err := DialTenant(ctx, tenant, p.addrs, p.t)
	if err != nil {
		return nil, fmt.Errorf("netexec: pool session for tenant %q: %w", tenant, err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = s.Close()
		return nil, errors.New("netexec: pool closed")
	}
	p.open[s] = tenant
	s.onClose = func() { p.forget(s) }
	p.mu.Unlock()
	return s, nil
}

// forget drops a closed session from the tracking table.
func (p *Pool) forget(s *Session) {
	p.mu.Lock()
	delete(p.open, s)
	p.mu.Unlock()
}

// OpenSessions reports the live session count per tenant.
func (p *Pool) OpenSessions() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.open))
	for _, tenant := range p.open {
		out[tenant]++
	}
	return out
}

// TenantWeights is the fleet-configuration form of weighted tenants: a
// repeatable "name=weight" mapping that Apply installs on a worker as
// per-tenant policies. It implements flag.Value, so a worker CLI and any
// fleet tooling share one syntax. The pool itself deliberately holds no
// policy — the workers must enforce fairness against EVERY coordinator,
// including ones that bypass a pool — which is why this helper configures
// Worker processes rather than sessions.
type TenantWeights map[string]int

// String renders the mapping in flag syntax, tenants sorted.
func (tw TenantWeights) String() string {
	if len(tw) == 0 {
		return ""
	}
	parts := make([]string, 0, len(tw))
	for name, wgt := range tw {
		parts = append(parts, fmt.Sprintf("%s=%d", name, wgt))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Set parses one "name=weight" entry (weight a positive integer); repeated
// flags accumulate, the last entry per tenant winning.
func (tw TenantWeights) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("tenant weight %q: want name=weight", s)
	}
	if len(name) > maxTenantLen {
		return fmt.Errorf("tenant weight %q: name exceeds %d bytes", s, maxTenantLen)
	}
	wgt, err := strconv.Atoi(val)
	if err != nil || wgt < 1 {
		return fmt.Errorf("tenant weight %q: want a positive integer weight", s)
	}
	tw[name] = wgt
	return nil
}

// Apply installs the weights on a worker as per-tenant policies, carrying
// base's budgets so a weighted tenant keeps the fleet's default quotas.
// Call before Serve, like SetTenantPolicy.
func (tw TenantWeights) Apply(w *Worker, base TenantPolicy) {
	for name, wgt := range tw {
		p := base
		p.Weight = wgt
		w.SetTenantPolicy(name, p)
	}
}

// Close hangs up every session still open through the pool and refuses new
// ones. Worker processes are not touched — they belong to the fleet, not to
// any one coordinator.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	open := make([]*Session, 0, len(p.open))
	for s := range p.open {
		open = append(open, s)
	}
	p.open = make(map[*Session]string)
	p.mu.Unlock()
	var first error
	for _, s := range open {
		// forget() on the session's own Close is harmless now — the tracking
		// table was already reset above.
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
