// Package streamjoin drives continuous windowed joins with drift-triggered
// mid-stream replanning. The driver owns an unbounded sequence of tuple
// windows and a static base relation; it opens a stream job on an
// exec.StreamRuntime, routes each window under the currently active plan,
// and inspects the merged per-worker summaries that come back with every
// window's counts. When a window's key distribution departs the
// distribution the active plan was built for by more than a drift threshold
// (Kolmogorov distance between the equi-depth CDFs), the driver replans from
// that window's summary and re-ships the base relation under the new scheme
// as a fresh EPOCH — live repartitioning without restarting the stream.
// In-flight windows drain under the old plan; the transport's per-worker
// FIFO is the cutover contract.
//
// Counts are plan-independent — every partition scheme counts each matching
// pair exactly once — so the stream total is bit-identical whether the run
// replans zero times, five times, or recovers from worker faults mid-way.
// That invariant is what the crosscheck tests pin.
package streamjoin

import (
	"errors"
	"fmt"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/sample"
	"ewh/internal/stats"
)

// driftThreshold is the replanning trigger: a Kolmogorov distance of 0.15
// between the active plan's reference CDF and a window's merged-summary CDF.
// Small enough to catch a genuine distribution flip (which drives the
// distance toward 1), large enough that sampling noise between
// same-distribution windows — empirically well under 0.1 at exec's window
// summary size — never fires.
const driftThreshold = 0.15

// DefaultPlanHorizon is the number of upcoming windows one plan is expected
// to serve. The planner balances total weight per worker, and a stream pays
// the base's input cost once per epoch but the window side's on every window
// — so the driver scales the window distribution's count by the horizon
// before planning. Without it a large base dominates the balance and the
// planner happily parks the whole window stream on one worker.
const DefaultPlanHorizon = 8

// Config tunes a continuous-join run.
type Config struct {
	// Opts are the planner options. J defaults to the stream's fleet width;
	// after a fault it is re-derived from the survivor fleet.
	Opts core.Options
	// Exec configures routing (mapper parallelism, scheme seed).
	Exec exec.Config
	// Stats seeds the per-worker window summaries drift detection consumes;
	// their size is exec's (exec.WindowSampleCap, exec.WindowBuckets).
	Stats exec.StatsSpec
	// FreezePlan disables drift-triggered replanning: the stream runs every
	// window under the plan built for the first one. The control arm of the
	// replanning experiments; faults still replan (a dead worker's shards
	// must move somewhere).
	FreezePlan bool
}

// WindowStat is one window's accounting.
type WindowStat struct {
	// Window is the window's index in the input sequence.
	Window int
	// Epoch is the plan epoch the window was (finally) counted under.
	Epoch uint32
	// Input is the fleet-wide shipped tuple count — at least the window's
	// size, more under replicating schemes. Count is the match total.
	Input int
	Count int64
	// Drift is the Kolmogorov distance between this window's merged summary
	// and the active plan's reference distribution (0 for the plan's own
	// anchor window and for empty windows).
	Drift float64
	// Replanned reports that this window's drift fired a replan; the new
	// plan takes effect from the next window.
	Replanned bool
	// Makespan is the window's modeled makespan: the maximum over workers of
	// the cost model's weight of (shard input, shard matches).
	Makespan float64
}

// Result is a finished continuous-join run.
type Result struct {
	// Windows holds per-window accounting in input order.
	Windows []WindowStat
	// Total is the stream's match total — bit-identical across plans,
	// replans and fault recoveries.
	Total int64
	// Replans counts drift-triggered replans (fault recoveries excluded).
	Replans int
	// Faults counts worker faults recovered from.
	Faults int
	// Makespan is the modeled end-to-end makespan: the per-window maxima
	// summed (the driver is lockstep, so windows serialize at the collect
	// barrier) plus every epoch's base-ship cost. Replanning pays base
	// re-ships to buy smaller per-window maxima; this is the quantity the
	// skew-flip experiment compares across the two arms.
	Makespan float64
}

// runState is one Run invocation's mutable state.
type runState struct {
	rt      exec.Runtime
	h       exec.StreamHandle
	spec    exec.StreamSpec
	cfg     Config
	model   cost.Model
	base    []join.Key
	windows [][]join.Key

	plan  *core.Plan
	epoch uint32
	// ref is the active plan's reference distribution. It is (re)anchored
	// from the FIRST window collected under each plan — summary versus
	// summary, so drift measures distribution movement, not estimator
	// mismatch — and nil until that window lands.
	ref *histogram.EquiDepth

	res Result
}

// Run executes a continuous join of windows against base on rt, which must
// implement exec.StreamRuntime. Windows are relation 1 of cond, the base is
// relation 2. The first window must be non-empty (the initial plan is built
// from it). Worker faults are recovered by replanning over the survivor
// fleet and re-sending the failed window under a new epoch, bounded by the
// initial fleet width.
func Run(rt exec.Runtime, base []join.Key, windows [][]join.Key, cond join.Condition, cfg Config) (*Result, error) {
	srt, ok := rt.(exec.StreamRuntime)
	if !ok {
		return nil, fmt.Errorf("streamjoin: runtime %T cannot host stream jobs", rt)
	}
	if len(windows) == 0 {
		return nil, errors.New("streamjoin: need at least one window")
	}
	if len(windows[0]) == 0 {
		return nil, errors.New("streamjoin: the first window must be non-empty (it seeds the plan)")
	}
	if len(base) == 0 {
		return nil, errors.New("streamjoin: empty base relation")
	}
	st := &runState{
		rt:      rt,
		spec:    exec.StreamSpec{Cond: cond, Stats: cfg.Stats},
		cfg:     cfg,
		base:    base,
		windows: windows,
	}
	st.model = cfg.Opts.Model
	if !st.model.Valid() {
		st.model = cost.DefaultBand
	}
	h, err := srt.OpenStream(st.spec)
	if err != nil {
		return nil, err
	}
	st.h = h
	defer func() {
		if st.h != nil {
			_ = st.h.Close()
		}
	}()
	if st.cfg.Opts.J <= 0 {
		st.cfg.Opts.J = h.Workers()
	}
	if err := st.openEpoch(windows[0], nil); err != nil {
		return nil, err
	}
	maxFaults := h.Workers()
	for i := 0; i < len(windows); {
		err := st.window(i)
		if err == nil {
			i++
			continue
		}
		if !exec.RetryableFault(err) || st.res.Faults >= maxFaults {
			return nil, err
		}
		if rerr := st.recover(i, err); rerr != nil {
			return nil, rerr
		}
	}
	err = st.h.Close()
	st.h = nil
	if err != nil {
		return nil, err
	}
	out := st.res
	return &out, nil
}

// openEpoch plans the next epoch — from exact window keys (initial plan and
// fault recovery, summarized coordinator-side) or from a drifted window's
// merged summary — and ships the base relation routed under it. The window
// distribution's count is scaled by the plan horizon so the planner weighs
// the stream's amortized window traffic against the base's one-time ship.
// The reference distribution resets; the first window collected under the
// new plan re-anchors it.
func (st *runState) openEpoch(planKeys []join.Key, sum *stats.Summary) error {
	if sum == nil {
		sum = sample.Summarize(planKeys, exec.WindowSampleCap, exec.WindowBuckets,
			stats.NewRNG(st.cfg.Stats.Seed))
	}
	// Scaling Count (sample and bounds untouched) scales the planner's R1
	// input weight AND its output estimate — Stream-Sample extrapolates m by
	// Count/len(Keys) — exactly as DefaultPlanHorizon windows of this
	// distribution would.
	amortized := *sum
	amortized.Count *= DefaultPlanHorizon
	plan, err := core.PlanCSIOFromSummary(&amortized, st.base, st.spec.Cond, st.cfg.Opts)
	if err != nil {
		return fmt.Errorf("streamjoin: plan epoch %d: %w", st.epoch+1, err)
	}
	if err := st.adopt(plan); err != nil {
		return err
	}
	shares, release, err := st.route(st.base, 2)
	if err != nil {
		return err
	}
	// Base (re)ships are input-only work; they are the price a replan pays.
	max := 0.0
	for _, sh := range shares {
		if w := st.model.Weight(float64(len(sh)), 0); w > max {
			max = w
		}
	}
	st.res.Makespan += max
	err = st.h.SendBase(st.epoch, shares)
	release()
	return err
}

// adopt makes plan the next epoch's, refusing (exec.CondMismatchError) a
// scheme that routes for another condition than the stream's.
func (st *runState) adopt(plan *core.Plan) error {
	if err := exec.CheckScheme(plan.Scheme, st.spec.Cond); err != nil {
		return err
	}
	st.plan = plan
	st.epoch++
	st.ref = nil
	return nil
}

// route shuffles keys under the active plan's scheme and pads the shares out
// to the fleet width: a plan over J workers on a wider fleet leaves the
// extra workers with empty shards, keeping the lockstep collect uniform.
func (st *runState) route(keys []join.Key, rel int) ([][]join.Key, func(), error) {
	fleet := st.h.Workers()
	sw := st.plan.Scheme.Workers()
	if sw > fleet {
		return nil, nil, fmt.Errorf("streamjoin: plan wants %d workers, fleet has %d", sw, fleet)
	}
	ks := exec.ShuffleKeys(keys, st.plan.Scheme, rel, st.cfg.Exec)
	shares := make([][]join.Key, fleet)
	for w := 0; w < sw; w++ {
		shares[w] = ks.Worker(w)
	}
	return shares, ks.Release, nil
}

// window sends windows[i] under the active epoch, collects the fleet's
// replies, accounts the result and replans if the window drifted.
func (st *runState) window(i int) error {
	keys := st.windows[i]
	shares, release, err := st.route(keys, 1)
	if err != nil {
		return err
	}
	err = st.h.SendWindow(uint32(i), st.epoch, shares)
	release()
	if err != nil {
		return err
	}
	replies, err := st.h.Collect(uint32(i), st.epoch)
	if err != nil {
		return err
	}
	stat := WindowStat{Window: i, Epoch: st.epoch}
	var in int64
	summaries := make([]*stats.Summary, len(replies))
	for j, r := range replies {
		in += r.Input
		stat.Count += r.Count
		if w := st.model.Weight(float64(r.Input), float64(r.Count)); w > stat.Makespan {
			stat.Makespan = w
		}
		summaries[j] = r.Summary
	}
	merged, err := stats.FoldSummaries(summaries)
	if err != nil {
		return fmt.Errorf("streamjoin: window %d summaries: %w", i, err)
	}
	// Replicating schemes ship some tuples to several regions, so the fleet
	// may see MORE than the window's tuples — but never fewer.
	if in < int64(len(keys)) {
		return fmt.Errorf("streamjoin: window %d holds %d tuples, workers saw only %d", i, len(keys), in)
	}
	stat.Input = int(in)
	if merged != nil && merged.Count > 0 {
		if st.ref == nil {
			// First window under this plan anchors the reference.
			ref, err := histogram.FromBounds(merged.Bounds)
			if err != nil {
				return fmt.Errorf("streamjoin: window %d reference: %w", i, err)
			}
			st.ref = ref
		} else {
			h, err := histogram.FromBounds(merged.Bounds)
			if err != nil {
				return fmt.Errorf("streamjoin: window %d histogram: %w", i, err)
			}
			stat.Drift = histogram.Drift(st.ref, h)
		}
	}
	replan := !st.cfg.FreezePlan && stat.Drift > driftThreshold && i+1 < len(st.windows)
	if replan {
		if err := st.openEpoch(nil, merged); err != nil {
			return err
		}
		stat.Replanned = true
		st.res.Replans++
	}
	st.res.Windows = append(st.res.Windows, stat)
	st.res.Total += stat.Count
	st.res.Makespan += stat.Makespan
	return nil
}

// recover handles a retryable fault at window i: derive the survivor fleet,
// reopen the stream on it, replan from the window's own keys (the driver
// holds them — no summary round-trip needed) and re-ship the base under a
// fresh epoch. The failed window re-runs under the new plan; any stale reply
// it produced under the old epoch is discarded by Collect's epoch filter.
func (st *runState) recover(i int, cause error) error {
	ft, ok := st.rt.(exec.FaultTolerantRuntime)
	if !ok {
		return cause
	}
	surv, n, err := ft.Survivors()
	if err != nil {
		return errors.Join(cause, err)
	}
	srt, ok := surv.(exec.StreamRuntime)
	if !ok {
		return errors.Join(cause, fmt.Errorf("streamjoin: survivor runtime %T cannot host stream jobs", surv))
	}
	_ = st.h.Close() // best-effort: the fleet it spans is partly dead
	h, err := srt.OpenStream(st.spec)
	if err != nil {
		return errors.Join(cause, err)
	}
	st.rt, st.h = surv, h
	st.cfg.Opts.J = n
	st.res.Faults++
	planKeys := st.windows[i]
	if len(planKeys) == 0 {
		planKeys = st.windows[0]
	}
	if err := st.openEpoch(planKeys, nil); err != nil {
		return errors.Join(cause, err)
	}
	return nil
}
