// Package multiway executes multi-way monotonic joins as a sequence of
// EWH-planned 2-way joins, the strategy §IV-B prescribes ("a multi-way join
// can be efficiently executed using a sequence of our 2-way joins"). A
// relation is key columns end to end: the Mid relation's column B rides the
// stage-1 shuffle as column A's companion, each match materializes as its B
// key, and that intermediate is re-partitioned with a fresh equi-weight
// histogram, so every stage is balanced on both its input and its output.
package multiway

import (
	"fmt"
	"sync/atomic"
	"time"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/stats"
)

// MidRelation is the middle relation of a 3-way chain join
// R1 ⋈_A Mid ⋈_B R3: column A joins with R1 and column B with R3. Rows are
// column-oriented; A and B must have equal length.
type MidRelation struct {
	A []join.Key
	B []join.Key
}

// Rows returns the row count.
func (m *MidRelation) Rows() int { return len(m.A) }

// Validate checks column alignment.
func (m *MidRelation) Validate() error {
	if len(m.A) != len(m.B) {
		return fmt.Errorf("multiway: mid relation columns differ: |A|=%d |B|=%d", len(m.A), len(m.B))
	}
	return nil
}

// Query is a 3-way chain join R1 ⋈_CondA Mid ⋈_CondB R3.
type Query struct {
	R1    []join.Key
	Mid   MidRelation
	R3    []join.Key
	CondA join.Condition
	CondB join.Condition
}

// StageResult reports one 2-way stage.
type StageResult struct {
	// Scheme is the partitioning scheme the stage used ("CSIO", or "CI"
	// after a high-selectivity fallback).
	Scheme string
	// PlanDuration is the stage's statistics + histogram time.
	PlanDuration time.Duration
	// Exec carries the engine metrics.
	Exec *exec.Result
}

// Result reports the whole multi-way execution.
type Result struct {
	Stages []StageResult
	// Output is the final join cardinality |R1 ⋈ Mid ⋈ R3|.
	Output int64
	// Intermediate is the stage-1 output size (tuples shipped to stage 2).
	Intermediate int64
}

// MaxIntermediate caps the materialized stage-1 result to protect callers
// from accidentally Cartesian first stages; Execute fails beyond it.
const MaxIntermediate = 200_000_000

// Execute runs the chain join in-process with per-stage EWH planning.
// opts.J machines are used by both stages.
func Execute(q Query, opts core.Options, cfg exec.Config) (*Result, error) {
	return ExecuteOver(exec.Local{}, q, opts, cfg)
}

// peerSeedDelta decorrelates the peer re-shuffle's routing streams from the
// engine seed without another knob; statsSeedDelta does the same for the
// workers' summary-sampling streams.
const (
	peerSeedDelta  = 0x7f4a7c15
	statsSeedDelta = 0x2545f491
)

// StatsSampleCap and StatsBuckets size the per-worker statistics summaries
// of the distributed CSIO stage-2 planning: each worker ships at most
// StatsSampleCap sampled keys plus a StatsBuckets-bucket equi-depth
// histogram of its local intermediate — a few KB per worker, independent of
// the intermediate size.
const (
	StatsSampleCap = 4096
	StatsBuckets   = 256
)

// ExecuteOver runs the chain join through rt. Stage-aware transports
// (exec.StageRuntime, e.g. a netexec session) take the peer-shuffle path: a
// genuine CSIO stage-2 plan built from distributed statistics, so the
// intermediate never transits the coordinator even for the content-sensitive
// schemes the paper evaluates under skew. Runtimes without a stage interface
// (exec.Local) take the coordinator-relay path (ExecuteOverRelay).
func ExecuteOver(rt exec.Runtime, q Query, opts core.Options, cfg exec.Config) (*Result, error) {
	if sr, ok := rt.(exec.StageRuntime); ok {
		return executePeer(sr, q, opts, cfg)
	}
	return ExecuteOverRelay(rt, q, opts, cfg)
}

// validate normalizes the query and options shared by both paths.
func validate(q Query, opts *core.Options) error {
	if err := q.Mid.Validate(); err != nil {
		return err
	}
	if !opts.Model.Valid() {
		opts.Model = cost.DefaultBand
	}
	if len(q.R1) == 0 || q.Mid.Rows() == 0 || len(q.R3) == 0 {
		return fmt.Errorf("multiway: empty relation (|R1|=%d |Mid|=%d |R3|=%d)",
			len(q.R1), q.Mid.Rows(), len(q.R3))
	}
	return nil
}

// executePeer is the direct worker→worker path: stage 1 runs exactly as the
// relay path (same plan, same shuffle, same per-worker blocks), but its
// matches stay on the workers. Each worker summarizes its local matches, the
// coordinator merges the summaries and plans a genuine equi-weight histogram
// over the intermediate it never saw, and the workers re-shuffle their
// matches among themselves by that plan. The coordinator only ever sees pair
// counts and summaries; Output and the intermediate size are bit-identical
// to the relay and in-process paths (stage-2 per-worker placement differs —
// the plan is built from sampled rather than exhaustive statistics).
func executePeer(rt exec.StageRuntime, q Query, opts core.Options, cfg exec.Config) (*Result, error) {
	if err := validate(q, &opts); err != nil {
		return nil, err
	}
	// Each attempt is the complete two-stage pipeline for its fleet size:
	// stage-1 plan, fresh transfer token, fresh statistics, replanned stage 2
	// — so a retry after a worker death re-shuffles from the driver-retained
	// relations under plans sized to the survivors, and the dead worker's
	// in-flight transfers are already cancelled (the failing attempt's
	// cancelPlan broadcast) before the new token's traffic starts. Nothing
	// from a failed attempt escapes: the peer path returns only counts, and
	// those are read only on success.
	var res *Result
	err := exec.RunRetry(rt, opts.J, cfg.Retry, func(srt exec.Runtime, j int) error {
		sr, ok := srt.(exec.StageRuntime)
		if !ok {
			return fmt.Errorf("multiway: runtime %T lost stage awareness after recovery", srt)
		}
		o := opts
		o.J = j
		var aerr error
		res, aerr = peerAttempt(sr, q, o, cfg)
		return aerr
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// peerAttempt runs one complete peer-shuffle pipeline over opts.J workers.
func peerAttempt(rt exec.StageRuntime, q Query, opts core.Options, cfg exec.Config) (*Result, error) {
	plan1Start := time.Now()
	plan1, err := core.PlanCSIO(q.R1, q.Mid.A, q.CondA, opts)
	if err != nil {
		return nil, fmt.Errorf("multiway: stage 1 plan: %w", err)
	}
	plan1Dur := time.Since(plan1Start)

	var plan2Dur time.Duration
	sp := exec.StagePlan{
		Cond:            q.CondB,
		MaxIntermediate: MaxIntermediate,
		MaxWorkers:      opts.J,
		Stats: &exec.StatsSpec{Cap: StatsSampleCap, Buckets: StatsBuckets,
			Seed: cfg.Seed + statsSeedDelta, Adaptive: true},
		Replan: func(summaries []*stats.Summary) ([]byte, partition.Scheme, error) {
			t0 := time.Now()
			defer func() { plan2Dur = time.Since(t0) }()
			s2, err := replanStage2(summaries, q, opts)
			if err != nil {
				return nil, nil, err
			}
			artifact := planio.Artifact{Scheme: s2, Seed: cfg.Seed + peerSeedDelta}
			b, err := planio.Encode(&artifact)
			return b, s2, err
		},
	}

	res1, res2, err := exec.RunStagesOver(rt, q.R1, q.Mid.A, q.Mid.B, q.CondA,
		plan1.Scheme, sp, q.R3, opts.Model, cfg)
	if err != nil {
		return nil, fmt.Errorf("multiway: peer pipeline: %w", err)
	}
	return &Result{
		Stages: []StageResult{
			{Scheme: plan1.Scheme.Name(), PlanDuration: plan1Dur, Exec: res1},
			{Scheme: res2.Scheme, PlanDuration: plan2Dur, Exec: res2},
		},
		Intermediate: res1.Output,
		Output:       res2.Output,
	}, nil
}

// replanStage2 is the coordinator half of the distributed statistics
// exchange: fold the per-worker summaries (in worker order — the merge is
// commutative but not exactly associative, so the fixed order keeps runs
// reproducible) and build the CSIO stage-2 plan against R3. The fallback
// rules, in order: an empty intermediate falls back to a statistics-free
// scheme — Hash for equality, CI otherwise, both complete and duplicate-free
// without seeing a tuple (there is nothing to balance) — and a
// high-selectivity estimate falls back to CI inside PlanCSIOFromSummary
// exactly as the in-process planner does (§VI-E).
func replanStage2(summaries []*stats.Summary, q Query, opts core.Options) (partition.Scheme, error) {
	var merged *stats.Summary
	for i, s := range summaries {
		if merged == nil {
			merged = s
			continue
		}
		var err error
		if merged, err = stats.MergeSummaries(merged, s); err != nil {
			return nil, fmt.Errorf("multiway: merging worker %d statistics: %w", i, err)
		}
	}
	if merged == nil || merged.Count == 0 {
		if _, ok := q.CondB.(join.Equi); ok {
			return partition.NewHash(opts.J, nil)
		}
		return partition.NewCI(opts.J), nil
	}
	opts2 := opts
	opts2.Seed = opts.Seed + 0x9e37
	plan2, err := core.PlanCSIOFromSummary(merged, q.R3, q.CondB, opts2)
	if err != nil {
		return nil, fmt.Errorf("multiway: stage 2 plan: %w", err)
	}
	return plan2.Scheme, nil
}

// ExecuteOverRelay runs the chain join with the coordinator-relay strategy
// on any runtime: stage 1 ships the Mid relation's A keys, the workers join
// and stream matched index pairs back, the coordinator reads each matched
// row's B key, and the re-keyed intermediate is re-planned with a
// fresh equi-weight histogram and joined on the same runtime. Planning
// (statistics, histograms) stays on the coordinator, exactly as the paper's
// coordinator builds the equi-weight histogram before each shuffle. Results
// are bit-identical across runtimes for a fixed cfg. It is what ExecuteOver
// falls back to on a runtime without a stage interface, and the reference
// the peer-shuffle crosschecks compare against.
func ExecuteOverRelay(rt exec.Runtime, q Query, opts core.Options, cfg exec.Config) (*Result, error) {
	if err := validate(q, &opts); err != nil {
		return nil, err
	}

	// Stage 1: R1 ⋈_A Mid, materializing the matched Mid rows' B keys. Each
	// retry attempt replans for its fleet, re-shuffles from the caller's
	// relations and resets the emission buffers — pairs a failed attempt
	// already streamed back are discarded wholesale, which is what keeps the
	// final intermediate exactly-once (the emit sink is attempt-local).
	var plan1Scheme partition.Scheme
	var plan1Dur time.Duration
	var perWorker [][]join.Key
	var res1 *exec.Result
	err := exec.RunRetry(rt, opts.J, cfg.Retry, func(srt exec.Runtime, j int) error {
		o := opts
		o.J = j
		plan1Start := time.Now()
		plan1, perr := core.PlanCSIO(q.R1, q.Mid.A, q.CondA, o)
		if perr != nil {
			return fmt.Errorf("multiway: stage 1 plan: %w", perr)
		}
		plan1Scheme = plan1.Scheme
		plan1Dur = time.Since(plan1Start)
		perWorker = make([][]join.Key, plan1.Scheme.Workers())
		var overflow atomic.Bool
		var aerr error
		res1, aerr = exec.RunPairsOver(srt, q.R1, q.Mid.A, q.CondA,
			plan1.Scheme, opts.Model, cfg,
			func(w, _, row2 int) {
				perWorker[w] = append(perWorker[w], q.Mid.B[row2])
				if len(perWorker[w]) == MaxIntermediate {
					overflow.Store(true)
				}
			})
		if aerr != nil {
			return fmt.Errorf("multiway: stage 1: %w", aerr)
		}
		if overflow.Load() || res1.Output > MaxIntermediate {
			return fmt.Errorf("multiway: stage 1 produced %d tuples (cap %d); restructure the chain",
				res1.Output, MaxIntermediate)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	intermediate := make([]join.Key, 0, res1.Output)
	for _, pw := range perWorker {
		intermediate = append(intermediate, pw...)
	}

	out := &Result{
		Stages: []StageResult{{
			Scheme:       plan1Scheme.Name(),
			PlanDuration: plan1Dur,
			Exec:         res1,
		}},
		Intermediate: res1.Output,
	}
	if len(intermediate) == 0 {
		out.Stages = append(out.Stages, StageResult{Scheme: "none"})
		return out, nil
	}

	// Stage 2: intermediate ⋈_B R3 — a fresh equi-weight histogram over the
	// materialized result, which may be arbitrarily skewed regardless of the
	// base relations' distributions (the JPS cascade §IV-B warns about). The
	// intermediate is driver-retained, so a retry only re-plans and
	// re-shuffles this stage, not stage 1.
	opts2 := opts
	opts2.Seed = opts.Seed + 0x9e37
	var plan2Scheme partition.Scheme
	var plan2Dur time.Duration
	res2, err := exec.RunOverReplan(rt, intermediate, q.R3, q.CondB, opts.J,
		func(j int) (partition.Scheme, error) {
			t0 := time.Now()
			defer func() { plan2Dur += time.Since(t0) }()
			o := opts2
			o.J = j
			plan2, perr := core.PlanCSIO(intermediate, q.R3, q.CondB, o)
			if perr != nil {
				return nil, fmt.Errorf("multiway: stage 2 plan: %w", perr)
			}
			plan2Scheme = plan2.Scheme
			return plan2.Scheme, nil
		}, opts.Model, cfg)
	if err != nil {
		return nil, fmt.Errorf("multiway: stage 2: %w", err)
	}

	out.Stages = append(out.Stages, StageResult{
		Scheme:       plan2Scheme.Name(),
		PlanDuration: plan2Dur,
		Exec:         res2,
	})
	out.Output = res2.Output
	return out, nil
}
