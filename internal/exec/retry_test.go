package exec

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ewh/internal/cost"
	"ewh/internal/join"
	"ewh/internal/partition"
)

func TestRetryPolicyDelay(t *testing.T) {
	// The one schedule: 50ms before the first retry, doubling to a 2s cap.
	want := []time.Duration{50, 100, 200, 400, 800, 1600, 2000, 2000}
	for n, w := range want {
		if d := retryDelay(n); d != w*time.Millisecond {
			t.Errorf("retryDelay(%d) = %v, want %v", n, d, w*time.Millisecond)
		}
	}
}

// fakeFault implements the structural retryability probe exec relies on.
type fakeFault struct {
	msg   string
	retry bool
}

func (f *fakeFault) Error() string        { return f.msg }
func (f *fakeFault) RetryableFault() bool { return f.retry }

func TestRetryableFault(t *testing.T) {
	retryable := &fakeFault{msg: "worker 1 died", retry: true}
	fatal := &fakeFault{msg: "bad plan on worker 0", retry: false}
	plain := errors.New("validation: j must be positive")

	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain driver error", plain, false},
		{"single retryable", retryable, true},
		{"single fatal", fatal, false},
		{"wrapped retryable", fmt.Errorf("stage 1: %w", retryable), true},
		{"joined all retryable", errors.Join(retryable, &fakeFault{msg: "x", retry: true}), true},
		{"joined mixed", errors.Join(retryable, fatal), false},
		{"joined with plain", errors.Join(retryable, plain), false},
		{"deeply wrapped", fmt.Errorf("a: %w", fmt.Errorf("b: %w", retryable)), true},
	}
	for _, c := range cases {
		if got := RetryableFault(c.err); got != c.want {
			t.Errorf("%s: RetryableFault = %v, want %v", c.name, got, c.want)
		}
	}
}

// fakeFTR scripts a FaultTolerantRuntime: errs[i] is what attempt i returns,
// and each Survivors call drops one worker.
type fakeFTR struct {
	workers   int
	attempts  int
	errs      []error
	survCalls int
	survErr   error
}

func (f *fakeFTR) Label() string { return "fake" }

func (f *fakeFTR) RunJob(job *Job, m []WorkerMetrics) error { return nil }

func (f *fakeFTR) Survivors() (Runtime, int, error) {
	f.survCalls++
	if f.survErr != nil {
		return nil, 0, f.survErr
	}
	f.workers--
	return f, f.workers, nil
}

func (f *fakeFTR) next() error {
	i := f.attempts
	f.attempts++
	if i < len(f.errs) {
		return f.errs[i]
	}
	return nil
}

func TestRunRetrySucceedsAfterFault(t *testing.T) {
	ftr := &fakeFTR{workers: 3, errs: []error{&fakeFault{msg: "w2 died", retry: true}}}
	var sizes []int
	err := RunRetry(ftr, 3, 2, func(rt Runtime, j int) error {
		sizes = append(sizes, j)
		return ftr.next()
	})
	if err != nil {
		t.Fatalf("RunRetry: %v", err)
	}
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 2 {
		t.Fatalf("attempt fleet sizes %v, want [3 2]", sizes)
	}
	if ftr.survCalls != 1 {
		t.Fatalf("Survivors called %d times", ftr.survCalls)
	}
}

func TestRunRetryStopsOnFatal(t *testing.T) {
	fatal := &fakeFault{msg: "deterministic", retry: false}
	ftr := &fakeFTR{workers: 3, errs: []error{fatal, nil}}
	err := RunRetry(ftr, 3, 4, func(rt Runtime, j int) error { return ftr.next() })
	if !errors.Is(err, fatal) {
		t.Fatalf("fatal fault not returned verbatim: %v", err)
	}
	if ftr.attempts != 1 {
		t.Fatalf("retried a non-retryable fault (%d attempts)", ftr.attempts)
	}
}

func TestRunRetryExhaustsBudget(t *testing.T) {
	f := &fakeFault{msg: "flaky", retry: true}
	ftr := &fakeFTR{workers: 10, errs: []error{f, f, f, f, f}}
	err := RunRetry(ftr, 10, 2, func(rt Runtime, j int) error { return ftr.next() })
	if !errors.Is(err, f) {
		t.Fatalf("want last fault after exhaustion, got %v", err)
	}
	if ftr.attempts != 3 {
		t.Fatalf("%d attempts, want the first attempt and 2 retries", ftr.attempts)
	}
}

func TestRunRetryNoSurvivors(t *testing.T) {
	f := &fakeFault{msg: "everyone died", retry: true}
	ftr := &fakeFTR{workers: 1, errs: []error{f},
		survErr: errors.New("no surviving workers")}
	err := RunRetry(ftr, 1, 2, func(rt Runtime, j int) error { return ftr.next() })
	if !errors.Is(err, f) {
		t.Fatalf("original fault lost: %v", err)
	}
	if ftr.attempts != 1 {
		t.Fatalf("retried with no survivors (%d attempts)", ftr.attempts)
	}
}

func TestRunRetryPlainRuntimeNoRetry(t *testing.T) {
	// A runtime without Survivors (e.g. Local) gets exactly one attempt even
	// for retryable faults.
	calls := 0
	err := RunRetry(Local{}, 2, 2, func(rt Runtime, j int) error {
		calls++
		return &fakeFault{msg: "x", retry: true}
	})
	if err == nil || calls != 1 {
		t.Fatalf("plain runtime: %d calls, err %v", calls, err)
	}
}

func TestRunOverReplanMatchesRun(t *testing.T) {
	// Against Local (no faults possible) RunOverReplan is RunOver: its
	// single attempt must reproduce the in-process result exactly.
	r1 := make([]join.Key, 0, 600)
	r2 := make([]join.Key, 0, 600)
	for i := 0; i < 600; i++ {
		r1 = append(r1, join.Key(uint64(i%149)))
		r2 = append(r2, join.Key(uint64(i%131)))
	}
	model := cost.Model{Wi: 1, Wo: 0.2}
	cfg := Config{Seed: 7, Retries: 2}
	scheme, err := partition.NewHash(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Run(r1, r2, join.Equi{}, scheme, model, cfg)
	got, err := RunOverReplan(Local{}, r1, r2, join.Equi{}, 2,
		func(j int) (partition.Scheme, error) { return partition.NewHash(j, nil) },
		model, cfg)
	if err != nil {
		t.Fatalf("RunOverReplan: %v", err)
	}
	if got.Output != want.Output {
		t.Fatalf("output %d, want %d", got.Output, want.Output)
	}
}

func TestRunOverReplanPlanError(t *testing.T) {
	planErr := errors.New("stats unavailable")
	_, err := RunOverReplan(Local{}, nil, nil, join.Equi{}, 2,
		func(j int) (partition.Scheme, error) { return nil, planErr },
		cost.Model{Wi: 1}, Config{})
	if !errors.Is(err, planErr) {
		t.Fatalf("plan error lost: %v", err)
	}
}
