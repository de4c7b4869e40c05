package exec

import (
	"errors"
	"fmt"
	"time"

	"ewh/internal/cost"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/sample"
	"ewh/internal/stage"
	"ewh/internal/stats"
)

// This file is the stage-aware half of the runtime layer: the driver never
// materializes one stage's output and re-shuffles it itself; it hands the
// transport a PLAN — a serializable partitioning artifact — plus relation
// futures, and the transport decides where the intermediate lives and how it
// moves. Every stage-1 worker runs the same three steps, defined here once:
// StageMatches, StageSummary, RouteStage. Local runs them on goroutines;
// over netexec each worker runs them and streams every share straight to its
// peer, so the intermediate never transits the driver.
//
// The plan is STATS-DEFERRED, the content-sensitive planning the paper is
// about: the transport has every stage-1 worker summarize its local matches
// (Stats seeds the summaries), collects the summaries, calls Replan to build
// the plan from the merged statistics, and only then routes by it — only the
// statistics summaries reach the driver.

// StatsSpec seeds the per-worker statistics summaries of a stage plan or a
// stream. Their sizes belong to the step that draws them (see below).
type StatsSpec struct {
	// Seed is the base summary-sampling seed; workers derive deterministic
	// per-sender streams from it.
	Seed uint64
}

// A summary's size is fixed by the step that draws it, as the planner's ns
// and si are fixed by n and J. A stage summary plans stage 2 of a pipeline:
// at most AdaptiveCap(n, stageSampleCap) sampled keys, so a worker holding a
// few thousand matches ships a few hundred, under a stageBuckets-bucket
// equi-depth histogram. A window summary feeds a stream's drift detection
// and replans: at most WindowSampleCap keys under WindowBuckets buckets,
// which streamjoin's coordinator-side summary of a window reads too.
const (
	stageSampleCap  = 4096
	stageBuckets    = 256
	WindowSampleCap = 1024
	WindowBuckets   = 64
)

// stageSummarySeed and streamSummarySeed derive the deterministic sampling
// stream of one sender's stage summary and of one worker's summary of one
// window, so a shard re-summarized after a fault (same content, same worker
// id) reproduces bit-identically.
func stageSummarySeed(seed uint64, sender int) uint64 {
	return seed + 0x517cc1b727220a95*uint64(sender+1)
}

func streamSummarySeed(seed uint64, worker int, window uint32) uint64 {
	return seed + 0x9e3779b97f4a7c15*uint64(worker+1) + 0x517cc1b727220a95*uint64(window+1)
}

// StageMatches is a stage-1 worker's first step: join its blocks and
// materialize each match (t1, t2) as t2's entry in the re-key column, in the
// deterministic JoinPairs order.
func StageMatches(r1, r2, rekey []join.Key, cond join.Condition) []join.Key {
	matches := make([]join.Key, 0, len(r1))
	JoinPairs(r1, r2, cond, func(chunk []PairIdx) {
		for _, p := range chunk {
			matches = append(matches, rekey[p.I2])
		}
	})
	return matches
}

// StageSummary is the second step: sender's encoded summary of its matches,
// at the stage summary's size, sampled from a stream derived from sp.Seed
// and the sender. It sorts the matches in place (sample.SummarizeInPlace),
// so RouteStage sends them on in key order.
func StageSummary(matches []join.Key, sp StatsSpec, sender int) ([]byte, error) {
	sum := sample.SummarizeInPlace(matches, sample.AdaptiveCap(len(matches), stageSampleCap),
		stageBuckets, stats.NewRNG(stageSummarySeed(sp.Seed, sender)))
	enc, err := planio.EncodeSummary(sum)
	if err != nil {
		return nil, fmt.Errorf("statistics summary: %w", err)
	}
	return enc, nil
}

// RouteStage is the third step: route sender's matches by the decoded
// stage-2 artifact on one mapper, from a stream derived from the artifact
// seed and the sender — so every holder of the plan reproduces any sender's
// shares, which keeps each stage-2 worker's input deterministic.
func RouteStage(matches []join.Key, art *planio.Artifact, sender int) *KeyShuffle {
	seed := art.Seed + 0x9e3779b97f4a7c15*uint64(sender+1)
	return ShuffleKeys(matches, art.Scheme, 1, Config{Seed: seed, Mappers: 1})
}

// RunStages implements StageRuntime in process with the pipeline a session's
// workers run: every stage-1 worker takes the three steps above, Replan sees
// the summaries once, and every stage-2 worker holds its share of next.R2
// resident and probes each sender's share against it, as a peer-fed worker
// job does.
func (Local) RunStages(first *Job, next *PlanJob, wm1, wm2 []WorkerMetrics) (int64, error) {
	if first.Pairs != nil {
		return 0, fmt.Errorf("exec: a stage pipeline's first job cannot stream pairs")
	}
	if next.Replan == nil {
		return 0, fmt.Errorf("exec: stage plan without a replan function")
	}
	r1, r2 := first.R1.Wait(), first.R2.Wait()
	if r2.Rekey == nil {
		return 0, fmt.Errorf("exec: stage pipeline without relation 2's re-key column")
	}
	j1 := first.Workers
	matches, sums, errs := make([][]join.Key, j1), make([][]byte, j1), make([]error, j1)
	forWorkers(j1, first.Stages, func(w int, clk *stage.Clock) {
		in1, in2 := r1.Keys.Worker(w), r2.Keys.Worker(w)
		matches[w] = StageMatches(in1, in2, r2.Rekey.Worker(w), first.Cond)
		clk.Mark(stage.Probe)
		wm1[w] = WorkerMetrics{InputR1: int64(len(in1)), InputR2: int64(len(in2)), Output: int64(len(matches[w]))}
		sums[w], errs[w] = StageSummary(matches[w], next.Stats, w)
		clk.Mark(stage.Summarize)
	})
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	plan, j2, err := next.Replan(sums)
	if err != nil {
		return 0, err
	}
	art, err := planio.Decode(plan)
	if err != nil {
		return 0, fmt.Errorf("exec: stage-2 plan: %w", err)
	}
	if j2 < 1 || j2 > len(wm2) || art.Scheme.Workers() != j2 {
		return 0, fmt.Errorf("exec: stage-2 plan routes to %d workers, replan reported %d, bound %d",
			art.Scheme.Workers(), j2, len(wm2))
	}
	routed := make([]*KeyShuffle, j1)
	forWorkers(j1, first.Stages, func(w int, clk *stage.Clock) {
		routed[w] = RouteStage(matches[w], art, w)
		clk.Mark(stage.Route)
	})
	r3 := next.R2.Wait()
	forWorkers(j2, next.Stages, func(p int, clk *stage.Clock) {
		m, res := &wm2[p], localjoin.NewResident(next.Cond, false, nil, clk)
		m.InputR2 = sealChunks(res, r3.Chunks.Worker(p), clk)
		shares := make([][]join.Key, len(routed))
		for w, ks := range routed {
			shares[w] = ks.Worker(p)
			m.InputR1 += int64(len(shares[w]))
		}
		m.Output = res.Finish(shares...)
	})
	var inter int64
	for w, ks := range routed {
		ks.Release()
		inter += wm1[w].Output
	}
	return inter, nil
}

// PlanJob hands a transport a downstream join stage as a plan rather than
// pre-routed blocks. The stage's left relation is the upstream stage's
// materialized matches, already living wherever the transport put them; the
// right relation is still shuffled by the driver (it owns that base data).
type PlanJob struct {
	// Plan is always nil: the stage's plan exists only once Replan returns
	// it, and reaches the transport as Replan's result. Kept for callers
	// that read it.
	Plan []byte
	// Cond is the stage's join predicate.
	Cond join.Condition
	// R2 resolves to the stage's driver-shuffled right relation, a chunk
	// stream (RelData.Chunks). It resolves only after Replan returns (the
	// driver cannot shuffle before it knows the scheme), so transports must
	// not Wait on it before replanning completes.
	R2 *RelFuture
	// Stats seeds the per-worker summaries of the stage-1 matches.
	Stats StatsSpec
	// Stages, when non-nil, receives each stage-2 worker's stage record, up
	// to the worker count Replan returns.
	Stages []stage.Record
	// Replan receives the per-sender encoded summaries (index = stage-1
	// worker id, each a planio summary) once every stage-1 join has
	// completed, and returns the encoded stage-2 plan plus its worker count.
	// The transport must call it at most once, synchronously, between
	// collecting the summaries and broadcasting the plan.
	Replan func(summaries [][]byte) (plan []byte, workers int, err error)
}

// StageRuntime is an optional Runtime extension implemented by transports
// that can re-shuffle one job's materialized matches directly between their
// workers: Local, and a netexec session, whose workers send each other their
// shares as contribution sub-jobs. The first job's
// second relation carries its companion as the re-key column (RelData.Rekey):
// a stage-1 match (t1, t2) materializes as t2's entry in it, which is exactly
// how the multiway pipeline re-keys its intermediate on the next join
// attribute.
type StageRuntime interface {
	Runtime
	// RunStages executes first (count-only; first.Pairs must be nil), routes
	// each worker's matches by the plan next.Replan returns to the stage-2
	// workers, joins them against next.R2 and fills wm1/wm2. wm1 has length
	// first.Workers; wm2 is an upper bound the transport fills up to the
	// worker count Replan returns. It returns the total intermediate size —
	// the only thing about the intermediate the driver ever sees.
	RunStages(first *Job, next *PlanJob, wm1, wm2 []WorkerMetrics) (intermediate int64, err error)
}

// StagePlan describes the downstream stage to RunStagesOver: its predicate,
// and how to plan it from the stage-1 workers' statistics. MaxWorkers and
// Replan are required. MaxIntermediate (when positive) caps the stage-1
// match total before stage 2 dispatches.
type StagePlan struct {
	Cond            join.Condition
	MaxIntermediate int64

	// Stats seeds the per-worker summaries.
	Stats StatsSpec
	// MaxWorkers bounds the replanned scheme's worker count (the driver's J;
	// it sizes the stage-2 metrics before the scheme exists).
	MaxWorkers int
	// Replan builds the stage-2 plan from the per-sender statistics
	// summaries (index = stage-1 worker, already decoded and validated by
	// the driver layer): it returns the encoded artifact and its decoded
	// scheme (workers <= MaxWorkers). Called at most once, after every
	// stage-1 worker has summarized its matches and before the plan
	// broadcasts — so no intermediate tuple has moved yet.
	Replan func(summaries []*stats.Summary) (plan []byte, scheme partition.Scheme, err error)
}

// stage2SeedDelta decorrelates the driver's right-relation shuffle from the
// first stage's shuffle streams without a second Config knob.
const stage2SeedDelta = 0x51ed270

// RunStagesOver executes a two-stage pipeline through a stage-aware
// transport: stage 1 joins r1 ⋈ r2 under scheme (shuffled once by the
// driver; rekey, aligned with r2, is r2's companion column — each row's
// stage-2 join key — and ships as the re-key column), the transport
// re-shuffles the matches by the plan sp.Replan builds without them ever
// returning to the driver, and stage 2 joins them against r3
// (driver-shuffled on the R2 side, seed cfg.Seed+stage2SeedDelta, starting
// the moment Replan resolves the scheme). Both stages' Results carry the
// usual per-worker metrics; stage 1's Output is the intermediate size.
func RunStagesOver(rt StageRuntime, r1, r2, rekey []join.Key,
	cond join.Condition, scheme partition.Scheme, sp StagePlan, r3 []join.Key,
	model cost.Model, cfg Config) (stage1, stage2 *Result, err error) {

	if len(rekey) != len(r2) {
		return nil, nil, fmt.Errorf("exec: re-key column has %d rows, relation 2 has %d", len(rekey), len(r2))
	}
	if rekey == nil {
		rekey = []join.Key{} // an empty relation 2 still declares its (empty) column
	}
	switch {
	case sp.Replan == nil:
		return nil, nil, fmt.Errorf("exec: stage plan without a replan function")
	case sp.MaxWorkers < 1:
		return nil, nil, fmt.Errorf("exec: stage plan needs a worker bound")
	}
	if err := CheckScheme(scheme, cond); err != nil {
		return nil, nil, err
	}
	cfg.defaults()
	start := time.Now()
	j1 := scheme.Workers()

	f1, f2 := newRelFuture(), newRelFuture()
	shufflePairAsync(r1, nil, r2, rekey, scheme, cfg,
		func(k, _ *KeyShuffle) { f1.resolve(RelData{Keys: k}) },
		func(k, rk *KeyShuffle) { f2.resolve(RelData{Keys: k, Rekey: rk}) })

	// The right relation of stage 2 starts shuffling the moment Replan
	// resolves its scheme, concurrently with the intermediate's re-shuffle;
	// the transport waits on its future only when stage 2 opens. r3 is a
	// chunk stream, the one form a stage transport takes it in: the first
	// routed sub-blocks hit stage-2 sockets while later mappers still route.
	// Replan runs synchronously inside RunStages, so scheme2 is settled once
	// RunStages returns.
	cfg3 := cfg
	cfg3.Seed = cfg.Seed + stage2SeedDelta
	f3 := newRelFuture()
	var scheme2 partition.Scheme
	next := &PlanJob{Cond: sp.Cond, R2: f3, Stats: sp.Stats}
	next.Replan = func(encoded [][]byte) ([]byte, int, error) {
		// The driver layer owns the summary codec: decode once, enforce the
		// pipeline cap off the exact counts — BEFORE the plan exists, so a
		// blown cap never moves a single intermediate tuple — and hand the
		// typed summaries to the planner.
		summaries := make([]*stats.Summary, len(encoded))
		var total int64
		for w, enc := range encoded {
			s, err := planio.DecodeSummary(enc)
			if err != nil {
				return nil, 0, fmt.Errorf("exec: stage-1 worker %d statistics summary: %w", w, err)
			}
			summaries[w] = s
			total += s.Count
		}
		if sp.MaxIntermediate > 0 && total > sp.MaxIntermediate {
			return nil, 0, fmt.Errorf("exec: stage 1 matched %d tuples, pipeline cap %d; restructure the chain",
				total, sp.MaxIntermediate)
		}
		plan, s, err := sp.Replan(summaries)
		if err != nil {
			return nil, 0, err
		}
		if s == nil || len(plan) == 0 {
			return nil, 0, fmt.Errorf("exec: replan returned an empty stage-2 plan")
		}
		if s.Workers() > sp.MaxWorkers {
			return nil, 0, fmt.Errorf("exec: replanned scheme routes to %d workers, pipeline bound %d",
				s.Workers(), sp.MaxWorkers)
		}
		if err := CheckScheme(s, sp.Cond); err != nil {
			return nil, 0, err
		}
		scheme2 = s
		f3.resolve(RelData{Chunks: ShuffleKeysChunked(r3, s, 2, cfg3)})
		return plan, s.Workers(), nil
	}

	res1 := &Result{Scheme: scheme.Name() + rt.Label(), Workers: make([]WorkerMetrics, j1), Stages: make([]stage.Record, j1)}
	res2 := &Result{Workers: make([]WorkerMetrics, sp.MaxWorkers), Stages: make([]stage.Record, sp.MaxWorkers)}
	first := &Job{Cond: cond, Workers: j1, R1: f1, R2: f2, Stages: res1.Stages}
	next.Stages = res2.Stages
	inter, err := rt.RunStages(first, next, res1.Workers, res2.Workers)

	// A transport that errored early may return while a scatter is still
	// writing: wait out both shuffles before recycling their buffers.
	releaseRelData(f1.Wait())
	releaseRelData(f2.Wait())
	// A failure before replanning leaves the r3 shuffle unstarted; resolve
	// the future empty so nothing downstream can block on it.
	if scheme2 == nil {
		f3.resolve(RelData{})
	}
	releaseRelData(f3.Wait())
	if err != nil {
		return nil, nil, err
	}
	if scheme2 == nil {
		return nil, nil, fmt.Errorf("exec: transport completed a stage pipeline without replanning")
	}
	res2.Workers, res2.Stages = res2.Workers[:scheme2.Workers()], res2.Stages[:scheme2.Workers()]
	res2.Scheme = scheme2.Name() + rt.Label()
	finishResult(res1, model, start)
	finishResult(res2, model, start)
	if inter != res1.Output {
		return nil, nil, fmt.Errorf("exec: transport re-shuffled %d intermediate tuples, stage 1 matched %d",
			inter, res1.Output)
	}
	return res1, res2, nil
}
