// Package ewh is a Go implementation of "Load Balancing and Skew Resilience
// for Parallel Joins" (Vitorovic, Elseidy, Koch — ICDE 2016): equi-weight
// histogram (EWH) partitioning for parallel monotonic joins (equality, band
// and inequality conditions), together with the 1-Bucket and M-Bucket
// baselines and an in-memory shared-nothing execution engine.
//
// The EWH scheme balances *both* the input tuples a machine receives and the
// output tuples it produces, eliminating redistribution skew and join
// product skew at once. It samples the join's output distribution without
// executing the join (a parallel Stream-Sample), builds a sample matrix over
// equi-depth histogram grids, coarsens it, and tiles it into at most J
// rectangular regions of near-equal weight with the MonotonicBSP algorithm.
//
// Quickstart:
//
//	r1 := workloadKeys1 // []ewh.Key
//	r2 := workloadKeys2
//	plan, err := ewh.Plan(r1, r2, ewh.Band(10), ewh.Options{J: 16})
//	if err != nil { ... }
//	res := ewh.Execute(r1, r2, ewh.Band(10), plan, ewh.ExecConfig{})
//	fmt.Println(res.Output, res.MaxWork)
//
// See DESIGN.md "Package inventory" for the system's parts and
// EXPERIMENTS.md for the paper-versus-measured record: per experiment the
// paper's shape, the measured one and the test row gating it, the
// deviations, and the repository benchmark's current numbers.
package ewh

import (
	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/tiling"
)

// Key is a join key; relations are []Key. Composite predicates (equality on
// one attribute plus a band on another) are encoded onto a single Key with
// Composite.
type Key = join.Key

// Condition is a monotonic join predicate. Construct one with Band, Equi,
// Less/LessEq/Greater/GreaterEq or Composite.
type Condition = join.Condition

// Band returns the band-join condition |R1.A - R2.A| <= beta.
func Band(beta int64) Condition { return join.NewBand(beta) }

// Equi returns the equality condition R1.A = R2.A.
func Equi() Condition { return join.Equi{} }

// Less returns R1.A < R2.A.
func Less() Condition { return join.Inequality{Op: join.Less} }

// LessEq returns R1.A <= R2.A.
func LessEq() Condition { return join.Inequality{Op: join.LessEq} }

// Greater returns R1.A > R2.A.
func Greater() Condition { return join.Inequality{Op: join.Greater} }

// GreaterEq returns R1.A >= R2.A.
func GreaterEq() Condition { return join.Inequality{Op: join.GreaterEq} }

// Composite describes an equality+band predicate over two attributes,
// encoded onto one key. See join.CompositeSpec for the exactness argument.
type Composite = join.CompositeSpec

// CostModel is the linear per-tuple cost model w = Wi·input + Wo·output.
type CostModel = cost.Model

// CalibrationRun is one observation for CalibrateCost.
type CalibrationRun = cost.Run

// CalibrateCost fits a CostModel from benchmark observations by least
// squares, as §VI-A of the paper prescribes.
func CalibrateCost(runs []CalibrationRun) (CostModel, error) { return cost.Calibrate(runs) }

// DefaultBandModel is the paper's fitted model for band joins (wo = 0.2).
var DefaultBandModel = cost.DefaultBand

// DefaultEquiBandModel is the paper's model for equi+band joins (wo = 0.3).
var DefaultEquiBandModel = cost.DefaultEquiBand

// Options configure planning; J (the number of joiner machines) is required.
type Options = core.Options

// Region is one equi-weight histogram bucket: a rectangle of the join matrix
// assigned to one machine.
type Region = tiling.Region

// PlanResult is a ready-to-execute partitioning plan with diagnostics.
type PlanResult = core.Plan

// Scheme routes tuples to workers (implemented by all three partitioners).
type Scheme = partition.Scheme

// Plan builds the paper's equi-weight histogram (CSIO/EWH) plan: it collects
// input and output statistics and runs the 3-stage histogram algorithm. For
// high-selectivity joins it falls back to the content-insensitive scheme
// (PlanResult.Fallback reports this).
func Plan(r1, r2 []Key, cond Condition, opts Options) (*PlanResult, error) {
	return core.PlanCSIO(r1, r2, cond, opts)
}

// PlanMBucket builds the input-statistics-only M-Bucket (CSI) baseline with
// p histogram buckets per relation.
func PlanMBucket(r1, r2 []Key, cond Condition, p int, opts Options) (*PlanResult, error) {
	return core.PlanCSI(r1, r2, cond, p, opts)
}

// PlanOneBucket builds the statistics-free 1-Bucket (CI) baseline.
func PlanOneBucket(opts Options) (*PlanResult, error) {
	return core.PlanCI(opts)
}

// ExecConfig tunes the execution engine.
type ExecConfig = exec.Config

// Result reports a join execution: exact output count, per-worker metrics,
// network and memory consumption, modeled makespan and wall time.
type Result = exec.Result

// Execute shuffles the relations to the plan's workers and runs the join.
// The model defaults to the plan's options' model via opts at plan time; the
// same model should be passed here for consistent Work metrics.
func Execute(r1, r2 []Key, cond Condition, plan *PlanResult, model CostModel, cfg ExecConfig) *Result {
	if !model.Valid() {
		model = cost.DefaultBand
	}
	return exec.Run(r1, r2, cond, plan.Scheme, model, cfg)
}
