package ewh

import (
	"context"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/multiway"
	"ewh/internal/netexec"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/streamjoin"
)

// This file exposes the paper's extension features (§IV-B, §A5): multi-way
// chain joins executed as a sequence of EWH-planned 2-way joins,
// heterogeneous-cluster region assignment, and the payload-carrying tuple
// adapter that materializes join results for downstream operators.

// MidRelation is the middle relation of a 3-way chain join: column A joins
// left, column B joins right.
type MidRelation = multiway.MidRelation

// MultiwayQuery is a 3-way chain join R1 ⋈ Mid ⋈ R3 (§IV-B).
type MultiwayQuery = multiway.Query

// MultiwayResult reports a multi-way execution: per-stage schemes and
// metrics, the intermediate size, and the final cardinality.
type MultiwayResult = multiway.Result

// ExecuteMultiway runs the chain join in process as a sequence of EWH-planned
// 2-way joins: each stage-1 worker summarizes its matches, stage 2 is planned
// from the summaries with a fresh equi-weight histogram, and the workers
// re-partition their matches by it, so each stage is balanced on its own input
// and output distribution. It is the pipeline a Cluster's workers run, with
// the same per-worker results.
func ExecuteMultiway(q MultiwayQuery, opts Options, cfg ExecConfig) (*MultiwayResult, error) {
	return multiway.Execute(q, opts, cfg)
}

// Runtime abstracts WHERE a planned join executes: the in-process engine
// (LocalRuntime) and a dialed worker cluster (Dial) are two transports
// behind the same execution API, producing bit-identical results for the
// same ExecConfig.
type Runtime = exec.Runtime

// LocalRuntime returns the in-process runtime: workers are goroutines.
func LocalRuntime() Runtime { return exec.Local{} }

// Cluster is a persistent session to remote join workers (ewhworker
// processes): one connection per worker, dialed and handshaken once, with
// numbered jobs multiplexed over it. It implements Runtime; Close hangs up.
type Cluster = netexec.Session

// Dial connects to remote workers and opens a session on each. Schemes
// executed over the returned Cluster may use up to len(addrs) workers.
func Dial(addrs []string) (*Cluster, error) { return netexec.Dial(addrs) }

// Timeouts bounds a cluster's connection establishment and per-operation IO
// so one hung worker or peer fails a job instead of wedging the session.
type Timeouts = netexec.Timeouts

// DialWith is Dial with explicit dial/IO deadlines.
func DialWith(addrs []string, t Timeouts) (*Cluster, error) {
	return netexec.DialTenant(context.Background(), "", addrs, t)
}

// WorkerPool is the coordinator-side handle on a SHARED worker fleet: any
// number of concurrent coordinators draw tenant sessions from one fixed set
// of worker addresses, and the workers enforce per-tenant admission control,
// weighted fair scheduling and resource budgets. See netexec.Pool.
type WorkerPool = netexec.Pool

// NewWorkerPool wraps a worker fleet's addresses as a shared pool; sessions
// dialed through it carry a tenant identity in the v3 handshake.
func NewWorkerPool(addrs []string, t Timeouts) (*WorkerPool, error) {
	return netexec.NewPool(addrs, t)
}

// ErrAdmission marks a job a worker refused under admission control (queue
// full or queue deadline exceeded): errors.Is(err, ErrAdmission). The worker
// is healthy — shed load or back off rather than retry hot.
var ErrAdmission = netexec.ErrAdmission

// ErrQuota marks a job that exceeded its tenant's worker-side resource
// budget: errors.Is(err, ErrQuota). Deterministic, never retried.
var ErrQuota = netexec.ErrQuota

// PlanArtifact is a serializable partitioning plan: the scheme and its
// routing seed, which is all an executor reads. Artifacts round-trip
// byte-exactly through EncodePlanArtifact/DecodePlanArtifact, so a plan
// built once executes identically anywhere — in files (ewhplan -planout,
// ewhcoord -planin) and on the wire (the cluster broadcasts one to its
// workers for the multiway peer re-shuffle).
type PlanArtifact = planio.Artifact

// EncodePlanArtifact serializes a plan artifact with the binary plan codec.
func EncodePlanArtifact(a *PlanArtifact) ([]byte, error) { return planio.Encode(a) }

// DecodePlanArtifact reconstructs a plan artifact; the decoded scheme routes
// identically to the encoded one.
func DecodePlanArtifact(data []byte) (*PlanArtifact, error) { return planio.Decode(data) }

// ExecuteOver runs a planned join through rt — Execute generalized over the
// transport. With a Cluster runtime the relations are shuffled once on the
// coordinator and streamed to the remote workers as they scatter.
func ExecuteOver(rt Runtime, r1, r2 []Key, cond Condition, plan *PlanResult,
	model CostModel, cfg ExecConfig) (*Result, error) {
	if !model.Valid() {
		model = DefaultBandModel
	}
	return exec.RunOver(rt, r1, r2, cond, plan.Scheme, model, cfg)
}

// ExecuteTuplesOver runs a payload-carrying join through rt. Only keys are
// shuffled or cross a wire: the workers stream matched index pairs back, the
// engine maps them to row numbers, and emit sees the caller's own tuples in a
// deterministic per-worker order identical across transports.
func ExecuteTuplesOver[P1, P2 any](rt Runtime, r1 []Tuple[P1], r2 []Tuple[P2],
	cond Condition, plan *PlanResult, model CostModel, cfg ExecConfig,
	emit func(workerID int, a Tuple[P1], b Tuple[P2])) (*Result, error) {
	if !model.Valid() {
		model = DefaultBandModel
	}
	return exec.RunTuplesOver(rt, r1, r2, cond, plan.Scheme, model, cfg, emit)
}

// ExecuteMultiwayOver runs the 3-way chain join through rt, which must run
// stage pipelines (LocalRuntime or a Cluster; any other runtime is refused).
// The Mid relation's column B ships beside A as stage 1's re-key column; the
// stage-1 intermediate never transits the coordinator — on a Cluster it
// re-shuffles directly worker→worker — under a genuine CSIO stage-2 plan built
// from distributed statistics (each worker ships a small summary of its local
// intermediate; the coordinator merges them and broadcasts the plan).
func ExecuteMultiwayOver(rt Runtime, q MultiwayQuery, opts Options, cfg ExecConfig) (*MultiwayResult, error) {
	return multiway.ExecuteOver(rt, q, opts, cfg)
}

// Assignment maps histogram regions onto machines of heterogeneous capacity
// (§A5). Plan with J = a few × machine count, then assign.
type Assignment = partition.Assignment

// AssignRegions distributes regions over machines with the given relative
// capacities, minimizing the capacity-normalized makespan (LPT for uniform
// machines with speeds).
func AssignRegions(regions []Region, capacities []float64) (*Assignment, error) {
	return partition.AssignRegions(regions, capacities)
}

// Tuple pairs a routing key with an opaque payload; the engine moves the key
// and hands the tuple back to emit by row number.
type Tuple[P any] = exec.Tuple[P]

// WrapKeys lifts bare keys into payload-less tuples.
func WrapKeys(keys []Key) []Tuple[struct{}] { return exec.WrapKeys(keys) }

// ExecuteTuples runs a join over payload-carrying tuples, invoking emit for
// every matching pair (never concurrently for the same workerID). Use it
// when the join result feeds another operator rather than being counted.
func ExecuteTuples[P1, P2 any](r1 []Tuple[P1], r2 []Tuple[P2], cond Condition,
	plan *PlanResult, model CostModel, cfg ExecConfig,
	emit func(workerID int, a Tuple[P1], b Tuple[P2])) *Result {
	if !model.Valid() {
		model = DefaultBandModel
	}
	return exec.RunTuples(r1, r2, cond, plan.Scheme, model, cfg, emit)
}

// Refine re-plans with runtime feedback: measuredOutput holds the output
// tuples each region actually produced (Result.Workers[i].Output, indexed
// like plan.Regions). Region estimates are corrected by measured/estimated
// before the regionalization reruns — the paper's suggested combination of
// EWH planning with adaptive estimators (§V).
func Refine(plan *PlanResult, measuredOutput []int64, opts Options) (*PlanResult, error) {
	return core.Refine(plan, measuredOutput, opts)
}

// StreamConfig tunes a continuous windowed join (see ExecuteStream).
type StreamConfig = streamjoin.Config

// StreamResult is a finished continuous-join run: per-window accounting,
// the stream's match total, and the replan/fault/makespan bookkeeping.
type StreamResult = streamjoin.Result

// WindowStat is one window's accounting within a StreamResult.
type WindowStat = streamjoin.WindowStat

// ExecuteStream runs a continuous windowed join of windows (relation 1)
// against the static base relation (relation 2) with drift-triggered
// mid-stream replanning: each window's merged worker summaries are compared
// against the distribution the active plan was built for, and when their
// Kolmogorov distance passes 0.15 the base is live-repartitioned under a new
// plan without restarting the stream (cfg.FreezePlan keeps the first plan).
// The match total is bit-identical regardless of how often the run replans
// or recovers from worker faults.
// rt must host stream jobs: NewLocalStreamRuntime or a Cluster.
func ExecuteStream(rt Runtime, base []Key, windows [][]Key, cond Condition,
	cfg StreamConfig) (*StreamResult, error) {
	return streamjoin.Run(rt, base, windows, cond, cfg)
}

// NewLocalStreamRuntime returns an in-process runtime hosting continuous
// stream jobs over workers simulated worker slots — the reference
// implementation the wire transport is crosschecked against.
func NewLocalStreamRuntime(workers int) Runtime {
	return exec.LocalStreamRuntime{Workers: workers}
}
