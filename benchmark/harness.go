package main

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/netexec"
)

// model is the cost model every workload plans and weighs work under.
var model = cost.DefaultBand

// joiners is J, the number of join workers every workload plans for. It is
// fixed so that every count the benchmark reports is machine-independent.
const joiners = 4

// opStats is what one finished, correct operation contributes to the report.
type opStats struct {
	tuples  int64 // input tuples the operation consumed
	network int64 // tuples shipped mapper → worker (replication included)
	// imbNum ÷ imbDen is the operation's imbalance; the report divides the
	// sums, so a workload passes ratio/1 or modeled makespan/ideal share.
	imbNum, imbDen float64
}

// joinStats is the opStats of one two-way join over tuples input tuples.
func joinStats(res *exec.Result, tuples int) opStats {
	return opStats{tuples: int64(tuples), network: res.NetworkTuples, imbNum: imbalanceOf(res), imbDen: 1}
}

// recorder collects one closed loop's operations. It also decides when the
// loop ends: after maxOps operations when maxOps > 0, else at the deadline.
type recorder struct {
	maxOps   int
	deadline time.Time
	start    time.Time

	mu       sync.Mutex
	begun    int
	lat      []time.Duration // per operation
	end      time.Time       // when the last one completed
	tuples   int64           // input tuples the correct operations consumed
	network  int64           // tuples they shipped
	imbNums  []float64       // per correct operation; see imbalance
	imbDens  []float64
	failed   int
	firstErr error
}

func newRecorder(maxOps int, seconds float64) *recorder {
	r := &recorder{maxOps: maxOps, start: time.Now()}
	if maxOps <= 0 {
		r.deadline = r.start.Add(time.Duration(seconds * float64(time.Second)))
	}
	return r
}

// next reports whether a client should start another operation and, if so,
// the operation's index. Concurrent clients share one sequence of indexes, so
// which operations a run is made of does not depend on how they interleave.
func (r *recorder) next() (idx int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.maxOps > 0 {
		if r.begun >= r.maxOps {
			return 0, false
		}
	} else if !time.Now().Before(r.deadline) {
		return 0, false
	}
	r.begun++
	return r.begun - 1, true
}

// more is next for a single client that keeps its own count.
func (r *recorder) more() bool {
	_, ok := r.next()
	return ok
}

// done records one finished operation and its latency. err is what makes it a
// failure — an error, a refusal or a count that differs from the oracle's —
// and nil for an operation whose result was correct.
func (r *recorder) done(d time.Duration, s opStats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		s = opStats{}
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	r.lat = append(r.lat, d)
	r.end = time.Now()
	r.tuples += s.tuples
	r.network += s.network
	r.imbNums = append(r.imbNums, s.imbNum)
	r.imbDens = append(r.imbDens, s.imbDen)
}

func (r *recorder) attempted() int { return len(r.lat) }

// wall is the whole timed section: loop start to the last operation's end.
func (r *recorder) wall() time.Duration { return r.end.Sub(r.start) }

// imbalance is Σ imbNum ÷ Σ imbDen over the operations. The terms are summed
// in sorted order, so that concurrent clients finishing in another order give
// the same floating-point result.
func (r *recorder) imbalance() float64 {
	sum := func(xs []float64) (s float64) {
		xs = slices.Clone(xs)
		slices.Sort(xs)
		for _, x := range xs {
			s += x
		}
		return s
	}
	den := sum(r.imbDens)
	if den == 0 {
		return 0
	}
	return sum(r.imbNums) / den
}

// imbalanceOf is the paper's makespan claim as a ratio: the heaviest worker's
// modeled work over the perfectly balanced share (1.0 = perfect).
func imbalanceOf(res *exec.Result) float64 {
	if res.TotalWork == 0 {
		return 1
	}
	return res.MaxWork / (res.TotalWork / joiners)
}

// outputOf is a finished join's count, 0 for a join that failed.
func outputOf(res *exec.Result) int64 {
	if res == nil {
		return 0
	}
	return res.Output
}

// checked turns a finished join into the recorder's failure verdict.
func checked(got, want int64, err error) error {
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("result count %d, oracle %d", got, want)
	}
	return nil
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fleet is a set of in-process loopback workers.
type fleet struct {
	workers []*netexec.Worker
	served  []chan struct{}
	addrs   []string
	// wire counts every byte read or written on a connection a worker
	// accepted (coordinator sessions and the peer mesh); nil when not counting.
	wire *atomic.Int64
}

// startFleet listens on n loopback ports and serves a worker on each. With
// countBytes the listeners count wire traffic (traced runs only).
func startFleet(n int, adm netexec.AdmissionConfig, countBytes bool) (*fleet, error) {
	f := &fleet{}
	if countBytes {
		f.wire = new(atomic.Int64)
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		if countBytes {
			ln = countingListener{ln, f.wire}
		}
		w := netexec.ListenWorkerOn(ln)
		if adm.MaxInFlight > 0 {
			w.SetAdmission(adm)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = w.Serve() // returns nil after Shutdown; a failed accept ends the worker and the jobs fail
		}()
		f.workers = append(f.workers, w)
		f.served = append(f.served, done)
		f.addrs = append(f.addrs, w.Addr())
	}
	return f, nil
}

// close drains every worker and waits for its accept loop to end.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, w := range f.workers {
		_ = w.Shutdown(ctx) // past the deadline Shutdown closes the connections itself
		<-f.served[i]
	}
}

// wireBytes is the traffic counted so far; 0 when not counting.
func (f *fleet) wireBytes() int64 {
	if f.wire == nil {
		return 0
	}
	return f.wire.Load()
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
