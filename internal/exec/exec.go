// Package exec is the in-memory shared-nothing execution substrate standing
// in for the paper's Squall-on-Storm cluster (see DESIGN.md "Substitutions").
// Mappers shuffle the input relations to J reducer workers according to a
// partitioning scheme; each worker joins the tuples it received with a local
// join algorithm. The engine records exactly the quantities the paper's
// evaluation is about: per-worker input received and output produced, the
// modeled makespan max_r w(r), cluster memory and network consumption, and
// the wall-clock execution time.
package exec

import (
	"fmt"
	"runtime"
	"time"

	"ewh/internal/cost"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/stage"
)

// Config tunes an engine run.
type Config struct {
	// Mappers is the shuffle parallelism; 0 means GOMAXPROCS.
	Mappers int
	// Seed drives the randomized schemes' routing.
	Seed uint64
	// Retries is how many times a fault-tolerant runtime retries a job after
	// its first attempt fails (see RunRetry); 0 disables retries.
	Retries int
	// Engine is read by nothing: localjoin picks the local-join engine from
	// the condition. Kept only because the benchmark module sets it.
	Engine JoinEngine
}

// DefaultBytesPerTuple is the modeled tuple width of the memory metric: an
// 8-byte key plus minimal payload/bookkeeping, as the statistics tuples in
// the paper carry only join keys.
const DefaultBytesPerTuple = 16

func (c *Config) defaults() {
	if c.Mappers <= 0 {
		c.Mappers = runtime.GOMAXPROCS(0)
	}
}

// WorkerMetrics records one reducer's work.
type WorkerMetrics struct {
	InputR1, InputR2 int64 // tuples received from each relation
	Output           int64 // output tuples produced
	Work             float64
}

// Input returns the worker's total received tuples.
func (w WorkerMetrics) Input() int64 { return w.InputR1 + w.InputR2 }

// Result summarizes a join execution.
type Result struct {
	Scheme  string
	Workers []WorkerMetrics
	// Stages is each worker's stage record: where its time went, which no
	// two runs share, so it stays out of Workers.
	Stages []stage.Record

	// Output is the total number of output tuples (exactly once per match).
	Output int64
	// NetworkTuples is the total tuples shuffled mapper→reducer; replication
	// makes this exceed the input size for CI.
	NetworkTuples int64
	// MemoryBytes is the cluster-wide reducer-side memory: every received
	// tuple is materialized for the local join.
	MemoryBytes int64
	// MaxWork and TotalWork are the modeled per-worker weights
	// w = wi·input + wo·output; MaxWork is the makespan the paper's load
	// balancing minimizes.
	MaxWork, TotalWork float64
	// WallTime is the measured end-to-end shuffle+join duration.
	WallTime time.Duration
}

// MaxInput returns the largest per-worker input, the RS metric.
func (r *Result) MaxInput() int64 {
	var m int64
	for _, w := range r.Workers {
		if w.Input() > m {
			m = w.Input()
		}
	}
	return m
}

// MaxOutput returns the largest per-worker output, the JPS metric.
func (r *Result) MaxOutput() int64 {
	var m int64
	for _, w := range r.Workers {
		if w.Output > m {
			m = w.Output
		}
	}
	return m
}

// String implements fmt.Stringer with a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s: J=%d out=%d net=%d mem=%dMB maxWork=%.0f wall=%v",
		r.Scheme, len(r.Workers), r.Output, r.NetworkTuples,
		r.MemoryBytes>>20, r.MaxWork, r.WallTime.Round(time.Millisecond))
}

// Run shuffles r1 and r2 to the scheme's workers and executes the join
// in-process. It is RunOver with the Local runtime: the shuffle is the
// two-pass batch-routed scatter into exactly-sized flat buffers (see
// shuffleRelation) and each worker is a goroutine running the local join over
// its contiguous slices.
func Run(r1, r2 []join.Key, cond join.Condition, scheme partition.Scheme,
	model cost.Model, cfg Config) *Result {

	res, _ := RunOver(Local{}, r1, r2, cond, scheme, model, cfg) // Local never errors
	return res
}

// RunOver shuffles r1 and r2 once and executes the join through rt — the
// transport-agnostic entry point behind Run (rt = Local) and the
// distributed engines (rt = netexec.Session). Each relation is handed to
// the runtime the moment its scatter completes, so a wire transport
// overlaps its socket writes with the other relation's still-running
// shuffle. With the same cfg the per-worker blocks, and therefore every
// per-worker metric, are identical across transports.
func RunOver(rt Runtime, r1, r2 []join.Key, cond join.Condition,
	scheme partition.Scheme, model cost.Model, cfg Config) (*Result, error) {

	if err := CheckScheme(scheme, cond); err != nil {
		return nil, err
	}
	cfg.defaults()
	start := time.Now()
	f1, f2 := newRelFuture(), newRelFuture()
	job := &Job{Cond: cond, Workers: scheme.Workers(), R1: f1, R2: f2}
	if streamsChunksFor(rt, job) {
		// Chunk-consuming transports skip the flat scatter entirely: both
		// relations resolve immediately as chunk streams and the transport
		// frames sub-blocks onto sockets (or, for Local's hash engine, into
		// the incremental build) as the mappers emit them.
		cs1, cs2 := shufflePairChunked(r1, r2, scheme, cfg)
		f1.resolve(RelData{Chunks: cs1})
		f2.resolve(RelData{Chunks: cs2})
	} else {
		shufflePairAsync(r1, nil, r2, nil, scheme, cfg,
			func(k, _ *KeyShuffle) { f1.resolve(RelData{Keys: k}) },
			func(k, _ *KeyShuffle) { f2.resolve(RelData{Keys: k}) })
	}
	return dispatch(rt, job, scheme, model, cfg, start)
}

// CondMismatchError refuses a region scheme built for one join condition
// (partition.NewRegionSchemeFor) on a job that joins on another: the scheme
// sends each tuple only where it joins under its own condition, so under the
// job's some matches would meet in no region.
type CondMismatchError struct {
	Scheme string
	// Planned is the condition the scheme routes for; Job the job's, zero
	// when it has no wire spec.
	Planned, Job join.Spec
}

func (e *CondMismatchError) Error() string {
	return fmt.Sprintf("exec: %s scheme routes for %s, the job joins on %s", e.Scheme, specString(e.Planned), specString(e.Job))
}

func specString(s join.Spec) string {
	if c, err := s.Condition(); err == nil {
		return c.String()
	}
	return fmt.Sprintf("%+v", s)
}

// CheckScheme returns a *CondMismatchError when scheme is a region scheme
// built for a join condition other than cond, the two compared by
// join.SpecOf. Any other scheme passes: its routing does not depend on the
// condition.
func CheckScheme(scheme partition.Scheme, cond join.Condition) error {
	rs, ok := scheme.(*partition.RegionScheme)
	if !ok {
		return nil
	}
	planned, ok := rs.Spec()
	if !ok {
		return nil
	}
	if job, err := join.SpecOf(cond); err != nil || job != planned {
		return &CondMismatchError{Scheme: rs.Name(), Planned: planned, Job: job}
	}
	return nil
}

// dispatch is the drivers' shared path: run job through rt, recycle both
// relations — waiting out their shuffles first, since a transport that errored
// early may return while a scatter is still writing — and derive the Result.
func dispatch(rt Runtime, job *Job, scheme partition.Scheme, model cost.Model,
	cfg Config, start time.Time) (*Result, error) {

	res := &Result{Scheme: scheme.Name() + rt.Label(), Workers: make([]WorkerMetrics, job.Workers),
		Stages: make([]stage.Record, job.Workers)}
	job.Stages = res.Stages
	err := rt.RunJob(job, res.Workers)
	releaseRelData(job.R1.Wait())
	releaseRelData(job.R2.Wait())
	if err != nil {
		return nil, err
	}
	finishResult(res, model, start)
	return res, nil
}

// releaseRelData recycles whichever representation the relation resolved to.
// For chunk streams this drains whatever the transport left unconsumed — a
// no-op after clean runs, the leak stopper after failed ones (the producer
// never blocks, so the drain always terminates).
func releaseRelData(d RelData) {
	if d.Keys != nil {
		d.Keys.Release()
	}
	if d.Rekey != nil {
		d.Rekey.Release()
	}
	if d.Chunks != nil {
		d.Chunks.Drain()
	}
}

// finishResult derives the modeled per-worker Work and the run-level
// aggregates from the filled input/output counts — shared by every driver
// so all transports report identical metrics for identical blocks.
func finishResult(res *Result, model cost.Model, start time.Time) {
	for i := range res.Workers {
		m := &res.Workers[i]
		m.Work = model.Weight(float64(m.Input()), float64(m.Output))
		res.Output += m.Output
		res.NetworkTuples += m.Input()
		res.MemoryBytes += m.Input() * DefaultBytesPerTuple
		res.TotalWork += m.Work
		if m.Work > res.MaxWork {
			res.MaxWork = m.Work
		}
	}
	res.WallTime = time.Since(start)
}

func shard(n, parts, i int) (lo, hi int) {
	return n * i / parts, n * (i + 1) / parts
}
