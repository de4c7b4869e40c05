package exec

import (
	"fmt"
	"time"

	"ewh/internal/cost"
	"ewh/internal/join"
	"ewh/internal/partition"
)

// This file is the driver half of fault-tolerant execution. The transport
// (netexec) classifies per-worker failures into typed faults and can derive
// a runtime over its surviving workers; this layer decides WHEN to retry —
// only on faults the transport marked retryable, only within the configured
// retry count, with bounded exponential backoff — and hands each attempt
// a freshly built plan sized to the shrunken fleet. The driver never learns
// transport specifics: retryability travels through a tiny interface probe
// and survivor derivation through FaultTolerantRuntime, so exec keeps zero
// dependency on netexec.

// The backoff between attempts: retryBaseDelay before the first retry,
// doubling per attempt up to retryMaxDelay.
const (
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
)

// retryDelay returns the backoff before retry n+1 (n counts completed failed
// attempts, from 0).
func retryDelay(n int) time.Duration {
	d := retryBaseDelay
	for i := 0; i < n && d < retryMaxDelay; i++ {
		d *= 2
	}
	return min(d, retryMaxDelay)
}

// FaultTolerantRuntime is a Runtime that can report which of its workers
// survive the faults observed so far and serve further jobs over just those.
// netexec.Session implements it; Local trivially does not (in-process
// workers don't fail independently).
type FaultTolerantRuntime interface {
	Runtime
	// Survivors returns a runtime view over the still-usable workers and
	// their count. With no faults observed it returns the receiver itself;
	// it errors when no worker survives.
	Survivors() (Runtime, int, error)
}

// RetryableFault reports whether err contains at least one fault the
// transport marked retryable (a dead or excluded worker) and none it marked
// fatal-deterministic is the sole cause. The probe is structural — any error
// in the tree exposing RetryableFault() bool participates — so exec needs no
// knowledge of the transport's fault taxonomy. An error with no classified
// fault at all is not retryable: it is a driver or validation failure that
// would recur identically.
func RetryableFault(err error) bool {
	some := false
	var walk func(error) bool // reports whether the subtree is all-retryable
	walk = func(e error) bool {
		if e == nil {
			return true
		}
		if f, ok := e.(interface{ RetryableFault() bool }); ok {
			if !f.RetryableFault() {
				return false
			}
			some = true
			return true
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, c := range u.Unwrap() {
				if !walk(c) {
					return false
				}
			}
			return true
		case interface{ Unwrap() error }:
			return walk(u.Unwrap())
		}
		// A leaf with no classification: not a worker fault. Retrying can
		// still help iff some sibling IS a retryable fault — but a plain
		// driver error must not be masked, so treat unclassified leaves as
		// neutral only when they are wrapper-less aggregation artifacts.
		return false
	}
	ok := walk(err)
	return ok && some
}

// RunRetry drives attempt to success, retrying at most retries times after
// the first attempt: each call receives the runtime to use and the worker
// count it may plan for. On a retryable fault it derives the survivor
// runtime, shrinks the worker budget to the survivors, backs off and
// re-attempts; anything else (success, a deterministic failure, retries
// exhausted, no survivors) returns immediately. The attempt callback owns
// replanning and re-shuffling for its fleet size — RunRetry only sequences
// the loop.
func RunRetry(rt Runtime, workers, retries int,
	attempt func(rt Runtime, workers int) error) error {

	for n := 0; ; n++ {
		err := attempt(rt, workers)
		if err == nil {
			return nil
		}
		if n >= retries || !RetryableFault(err) {
			return err
		}
		ft, ok := rt.(FaultTolerantRuntime)
		if !ok {
			return err
		}
		srt, n2, serr := ft.Survivors()
		if serr != nil {
			return fmt.Errorf("%w (recovery impossible: %v)", err, serr)
		}
		rt = srt
		if n2 < workers {
			workers = n2
		}
		time.Sleep(retryDelay(n))
	}
}

// RunOverReplan is RunOver with recovery: on a retryable worker fault it
// rebuilds the scheme for the surviving fleet via plan, re-shuffles both
// relations from the caller's (driver-retained) slices and re-runs the job.
// Per-attempt work is exactly one RunOver — the input slices are never
// mutated, so every attempt sees identical input.
func RunOverReplan(rt Runtime, r1, r2 []join.Key, cond join.Condition,
	workers int, plan func(j int) (partition.Scheme, error),
	model cost.Model, cfg Config) (*Result, error) {

	var res *Result
	err := RunRetry(rt, workers, cfg.Retries, func(rt Runtime, j int) error {
		scheme, perr := plan(j)
		if perr != nil {
			return fmt.Errorf("exec: replanning for %d workers: %w", j, perr)
		}
		var aerr error
		res, aerr = RunOver(rt, r1, r2, cond, scheme, model, cfg)
		return aerr
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
