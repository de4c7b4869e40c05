// Package multiway executes multi-way monotonic joins as a sequence of
// EWH-planned 2-way joins, the strategy §IV-B prescribes ("a multi-way join
// can be efficiently executed using a sequence of our 2-way joins"). A
// relation is key columns end to end: the Mid relation's column B rides the
// stage-1 shuffle as column A's companion, each match materializes as its B
// key, and that intermediate is re-partitioned with a fresh equi-weight
// histogram, so every stage is balanced on both its input and its output.
// There is one pipeline: the stage-1 workers summarize their matches, the
// driver plans stage 2 from the summaries, and the workers route their
// matches by that plan — in process (exec.Local) or worker to worker (a
// netexec session), with identical per-worker results.
package multiway

import (
	"fmt"
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

// peerSeedDelta decorrelates the stage-2 routing streams from the engine
// seed without another knob; statsSeedDelta does the same for the workers'
// summary-sampling streams.
const (
	peerSeedDelta  = 0x7f4a7c15
	statsSeedDelta = 0x2545f491
)

// ExecuteOver runs the chain join through rt's stage pipeline
// (exec.StageRuntime: exec.Local in process, a netexec session worker to
// worker). Stage 2 is a genuine CSIO plan built from the stage-1 workers'
// summaries of their matches, so the intermediate never reaches the driver;
// Output and Intermediate are the same on every runtime, and so is every
// per-worker metric of both stages.
//
// Each attempt is the complete two-stage pipeline for its fleet size:
// stage-1 plan, fresh transfer token, fresh statistics, replanned stage 2 —
// so a retry after a worker death re-shuffles from the driver-retained
// relations under plans sized to the survivors, and the dead worker's
// in-flight transfers are already cancelled before the new token's traffic
// starts. Nothing from a failed attempt escapes: the pipeline returns only
// counts, and those are read only on success.
func ExecuteOver(rt exec.Runtime, q Query, opts core.Options, cfg exec.Config) (*Result, error) {
	if _, ok := rt.(exec.StageRuntime); !ok {
		return nil, fmt.Errorf("multiway: runtime %T cannot run a stage pipeline", rt)
	}
	if err := q.Mid.Validate(); err != nil {
		return nil, err
	}
	if !opts.Model.Valid() {
		opts.Model = cost.DefaultBand
	}
	if len(q.R1) == 0 || q.Mid.Rows() == 0 || len(q.R3) == 0 {
		return nil, fmt.Errorf("multiway: empty relation (|R1|=%d |Mid|=%d |R3|=%d)",
			len(q.R1), q.Mid.Rows(), len(q.R3))
	}
	var res *Result
	err := exec.RunRetry(rt, opts.J, cfg.Retries, func(srt exec.Runtime, j int) error {
		sr, ok := srt.(exec.StageRuntime)
		if !ok {
			return fmt.Errorf("multiway: runtime %T lost stage awareness after recovery", srt)
		}
		o := opts
		o.J = j
		var aerr error
		res, aerr = attempt(sr, q, o, cfg)
		return aerr
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// attempt runs one complete two-stage pipeline over opts.J workers.
func attempt(rt exec.StageRuntime, q Query, opts core.Options, cfg exec.Config) (*Result, error) {
	plan1, err := core.PlanCSIO(q.R1, q.Mid.A, q.CondA, opts)
	if err != nil {
		return nil, fmt.Errorf("multiway: stage 1 plan: %w", err)
	}

	var plan2Dur time.Duration
	sp := exec.StagePlan{
		Cond:            q.CondB,
		MaxIntermediate: MaxIntermediate,
		MaxWorkers:      opts.J,
		Stats:           exec.StatsSpec{Seed: cfg.Seed + statsSeedDelta},
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
		return nil, fmt.Errorf("multiway: stage pipeline: %w", err)
	}
	return &Result{
		Stages: []StageResult{
			{Scheme: plan1.Scheme.Name(), PlanDuration: plan1.Stages.Total(), Exec: res1},
			{Scheme: res2.Scheme, PlanDuration: plan2Dur, Exec: res2},
		},
		Intermediate: res1.Output,
		Output:       res2.Output,
	}, nil
}

// replanStage2 is the coordinator half of the distributed statistics
// exchange: fold the per-worker summaries in worker order and build the CSIO
// stage-2 plan against R3. The fallback rules, in order: an empty
// intermediate falls back to a statistics-free scheme — Hash for equality,
// CI otherwise, both complete and duplicate-free without seeing a tuple
// (there is nothing to balance) — and a high-selectivity estimate falls back
// to CI inside PlanCSIOFromSummary exactly as the in-process planner does
// (§VI-E).
func replanStage2(summaries []*stats.Summary, q Query, opts core.Options) (partition.Scheme, error) {
	merged, err := stats.FoldSummaries(summaries)
	if err != nil {
		return nil, fmt.Errorf("multiway: merging worker statistics: %w", err)
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
