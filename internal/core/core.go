// Package core assembles the paper's join operator (§IV): it collects input
// and output statistics, runs the 3-stage histogram algorithm (sampling →
// coarsening → regionalization) and produces the partitioning scheme the
// execution engine shuffles by. It also builds the two baselines — CI
// (1-Bucket) needs no statistics, CSI (M-Bucket) needs input statistics
// only — and implements the §VI-E fallback from CSIO to CI when the join
// turns out to be high-selectivity.
package core

import (
	"fmt"
	"math"
	"time"

	"ewh/internal/cost"
	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/matrix"
	"ewh/internal/partition"
	"ewh/internal/sample"
	"ewh/internal/stats"
	"ewh/internal/tiling"
)

// Options configure plan construction.
type Options struct {
	// J is the number of joiner machines (required, >= 1).
	J int
	// Model is the cost model; the zero value selects cost.DefaultBand.
	Model cost.Model
	// StatWorkers is the parallelism of statistics collection; 0 = J.
	StatWorkers int
	// Seed makes planning deterministic.
	Seed uint64

	// NS overrides the sample-matrix size (default √(2nJ), Lemma 3.1).
	NS int
	// NC overrides the coarsened-matrix size (default 2J, §III-B; the
	// nc = J ablation, bench.Ablations, sets this explicitly).
	NC int
	// OutputSampleFactor sets so = factor · nsc (default 2, §A5).
	OutputSampleFactor float64
	// BaselineBSP selects the O(nc⁵) baseline solver for the
	// regionalization (ablation knob); results are identical, only slower.
	BaselineBSP bool

	// HighSelectivityRatio is the m/n ratio beyond which CSIO falls back to
	// CI (§VI-E; CI is near-optimal when output costs dominate utterly).
	// Default 200 (the paper: "up to 2 orders of magnitude").
	HighSelectivityRatio float64
	// StatsBudget is §VI-E's second fallback trigger: the statistics-time
	// allowance in seconds per million input tuples (the paper found half a
	// second per million in their setup). Zero disables the time trigger.
	StatsBudget float64
	// DisableFallback forces CSIO even for high-selectivity joins.
	DisableFallback bool

	// AdaptNS enables the §A5 sample-matrix resizing once the exact output
	// size m is known: ns' = √(2nJ/ρB) with ρB = m/n. For m > n this shrinks
	// MS (the paper uses it for BCB); for m < n it grows MS to restore the
	// Lemma 3.1 bound. The adjustment rebuilds the equi-depth histograms and
	// re-places the already-collected output sample; growth is capped at
	// 4×ns (beyond that §A5's cell-splitting case applies, which this
	// implementation approximates by the cap).
	AdaptNS bool
}

func (o *Options) defaults() error {
	if o.J < 1 {
		return fmt.Errorf("core: J = %d < 1", o.J)
	}
	if !o.Model.Valid() {
		o.Model = cost.DefaultBand
	}
	if o.StatWorkers <= 0 {
		o.StatWorkers = o.J
	}
	if o.OutputSampleFactor <= 0 {
		o.OutputSampleFactor = 2
	}
	if o.HighSelectivityRatio <= 0 {
		o.HighSelectivityRatio = 200
	}
	return nil
}

// Plan is a ready-to-execute partitioning plan plus the diagnostics the
// evaluation reports.
type Plan struct {
	// Scheme routes tuples; hand it to exec.Run.
	Scheme partition.Scheme
	// Regions is the equi-weight histogram MH (nil for CI).
	Regions []tiling.Region
	// EstimatedMaxWeight is the planner's max region weight (CSIO-EST. in
	// Fig. 4h); compare against exec.Result.MaxWork.
	EstimatedMaxWeight float64
	// StatsDuration is the statistics + histogram-algorithm time ("stats
	// time" in Fig. 4a).
	StatsDuration time.Duration
	// HistAlgDuration is the CPU time of the histogram algorithm proper
	// (sample-matrix build + coarsening + regionalization), the quantity
	// Table V tracks as the CSI bucket count p grows. It excludes the data
	// scans that collect the samples.
	HistAlgDuration time.Duration
	// M is the exact join output size (CSIO only; 0 otherwise).
	M int64
	// NS and NC are the realized matrix sizes (CSIO/CSI).
	NS, NC int
	// Fallback reports that CSIO abandoned its scheme for CI (§VI-E).
	Fallback bool

	// dense retains the coarsened matrix for Refine; nil for CI plans.
	dense *matrix.Dense
}

// Refine re-runs the regionalization with runtime feedback: measuredOutput
// holds the output tuples each region actually produced (indexed like
// plan.Regions, i.e. like the engine's workers). Cells inside each region
// are rescaled by measured/estimated before re-tiling, so systematic
// estimation error in a region — the trigger for task reassignment in
// adaptive schemes — is corrected in the next plan instead (§V: "we can use
// our technique for initial partitioning and for feeding the estimator").
func Refine(plan *Plan, measuredOutput []int64, opts Options) (*Plan, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	if plan.dense == nil {
		return nil, fmt.Errorf("core: plan has no coarsened matrix (CI or fallback plans cannot be refined)")
	}
	if len(measuredOutput) != len(plan.Regions) {
		return nil, fmt.Errorf("core: %d measurements for %d regions", len(measuredOutput), len(plan.Regions))
	}
	rects := make([]matrix.Rect, len(plan.Regions))
	factors := make([]float64, len(plan.Regions))
	for i, reg := range plan.Regions {
		rects[i] = reg.Rect
		est := reg.Output
		if est < 1 {
			est = 1
		}
		factors[i] = float64(measuredOutput[i]) / est
	}
	d := plan.dense.ScaleRegions(rects, factors)
	regions, err := tiling.Regionalize(d, opts.Model, opts.J,
		tiling.RegionalizeOptions{UseBaselineBSP: opts.BaselineBSP})
	if err != nil {
		return nil, err
	}
	return &Plan{
		Scheme:             partition.NewRegionScheme(plan.Scheme.Name(), regions),
		Regions:            regions,
		EstimatedMaxWeight: tiling.MaxWeight(regions),
		M:                  plan.M,
		NS:                 plan.NS,
		NC:                 plan.NC,
		dense:              d,
	}, nil
}

// PlanCI builds the statistics-free content-insensitive plan.
func PlanCI(opts Options) (*Plan, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	return &Plan{Scheme: partition.NewCI(opts.J)}, nil
}

// BuildSampleMatrix runs only the sampling stage (§III-A): input samples →
// equi-depth histograms → parallel Stream-Sample output sample → sample
// matrix MS with exact m. Exposed for ablations and diagnostics; PlanCSIO
// continues with coarsening and regionalization.
func BuildSampleMatrix(r1, r2 []join.Key, cond join.Condition, opts Options) (*matrix.Sample, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	sm, _, err := buildSampleMatrixTimed(r1, r2, cond, opts)
	return sm, err
}

// buildSampleMatrixTimed additionally reports the time spent in the MS build
// itself (the histogram-algorithm share, as opposed to the data scans).
func buildSampleMatrixTimed(r1, r2 []join.Key, cond join.Condition, opts Options) (*matrix.Sample, time.Duration, error) {
	rng := stats.NewRNG(opts.Seed)
	n1, n2 := len(r1), len(r2)
	if n1 == 0 || n2 == 0 {
		return nil, 0, fmt.Errorf("core: empty input relation (n1=%d n2=%d)", n1, n2)
	}
	n := maxInt(n1, n2)

	// Sampling stage sizes (Lemma 3.1, §A1).
	ns := opts.NS
	if ns <= 0 {
		ns = int(math.Ceil(math.Sqrt(2 * float64(n) * float64(opts.J))))
	}
	if ns > n {
		ns = n
	}
	si := inputSampleSize(ns, n)

	rh, ch, err := buildHistograms(r1, r2, ns, si, rng)
	if err != nil {
		return nil, 0, err
	}

	// Candidate MS cells determine the output sample size so = Θ(nsc) (§A5).
	nsc := countCandidates(rh, ch, cond)
	so := int(opts.OutputSampleFactor * float64(nsc))
	if so < 1063 {
		so = 1063 // Kolmogorov-statistics floor (§A1)
	}

	out := sample.StreamSample(r1, r2, cond, so, opts.StatWorkers, rng)

	if opts.AdaptNS && out.M > 0 {
		rho := float64(out.M) / float64(n)
		nsAdj := int(math.Ceil(math.Sqrt(2 * float64(n) * float64(opts.J) / rho)))
		if nsAdj > 4*ns {
			nsAdj = 4 * ns // §A5 case (ii) territory; cap instead of splitting cells
		}
		if lo := 2 * opts.J; nsAdj < lo {
			nsAdj = lo
		}
		if nsAdj > n {
			nsAdj = n
		}
		// Only rebuild when the change is worth the extra sampling pass.
		if nsAdj*4 < ns*3 || nsAdj*3 > ns*4 {
			ns = nsAdj
			rh, ch, err = buildHistograms(r1, r2, ns, inputSampleSize(ns, n), rng)
			if err != nil {
				return nil, 0, err
			}
		}
	}

	buildStart := time.Now()
	sm, err := matrix.BuildSample(rh, ch, cond, out.Pairs, out.M, n1, n2, 0)
	return sm, time.Since(buildStart), err
}

// PlanCSIO builds the paper's equi-weight histogram plan: fixed-size uniform
// input samples (sample.FixedSize, a reservoir — the paper draws Bernoulli
// samples of the same expected size) → equi-depth histograms → parallel Stream-Sample output sample
// (with exact m) → sample matrix MS (ns = √(2nJ)) → coarsened matrix MC
// (nc = 2J) → MonotonicBSP regionalization into at most J regions.
func PlanCSIO(r1, r2 []join.Key, cond join.Condition, opts Options) (*Plan, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	start := time.Now()
	sm, buildDur, err := buildSampleMatrixTimed(r1, r2, cond, opts)
	if err != nil {
		return nil, err
	}
	n := maxInt(len(r1), len(r2))
	overSelective := sm.M > int64(opts.HighSelectivityRatio)*int64(n)
	overBudget := opts.StatsBudget > 0 &&
		time.Since(start).Seconds() > opts.StatsBudget*float64(len(r1)+len(r2))/1e6
	if !opts.DisableFallback && (overSelective || overBudget) {
		// High-selectivity join (or a stats phase that blew its time budget,
		// §VI-E's second trigger): CI's equal-area regions already balance
		// the dominating output cost; the stats time spent so far is the
		// small price §VI-E accounts for.
		p, err := PlanCI(opts)
		if err != nil {
			return nil, err
		}
		p.Fallback = true
		p.M = sm.M
		p.StatsDuration = time.Since(start)
		return p, nil
	}

	algStart := time.Now()
	plan, err := regionalizePlan(sm, "CSIO", opts)
	if err != nil {
		return nil, err
	}
	plan.M = sm.M
	plan.NS = sm.Rows
	plan.HistAlgDuration = buildDur + time.Since(algStart)
	plan.StatsDuration = time.Since(start)
	return plan, nil
}

// PlanCSI builds the M-Bucket baseline: p-bucket equi-depth histograms over
// each relation, a p×p candidate grid, and regions that balance input plus a
// constant assumed output per candidate cell (§II-B: CSI "ignores the actual
// number of output tuples and assigns a constant to each candidate cell").
func PlanCSI(r1, r2 []join.Key, cond join.Condition, p int, opts Options) (*Plan, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	start := time.Now()
	rng := stats.NewRNG(opts.Seed)
	n1, n2 := len(r1), len(r2)
	if n1 == 0 || n2 == 0 {
		return nil, fmt.Errorf("core: empty input relation (n1=%d n2=%d)", n1, n2)
	}
	if p < 1 {
		return nil, fmt.Errorf("core: p = %d < 1", p)
	}
	if p > n1 {
		p = n1
	}
	if p > n2 {
		p = n2
	}
	si := inputSampleSize(p, maxInt(n1, n2))
	rh, ch, err := buildHistograms(r1, r2, p, si, rng)
	if err != nil {
		return nil, err
	}
	// The constant per candidate cell: its Cartesian area h = (n1/p)·(n2/p),
	// the upper bound §II-B cites; only its uniformity matters — CSI cannot
	// distinguish dense from sparse candidate cells, which is exactly the
	// JPS blindness the paper attacks.
	h := float64(n1) / float64(p) * float64(n2) / float64(p)
	algStart := time.Now()
	sm, err := matrix.BuildSample(rh, ch, cond, nil, 0, n1, n2, h)
	if err != nil {
		return nil, err
	}
	plan, err := regionalizePlan(sm, "CSI", opts)
	if err != nil {
		return nil, err
	}
	plan.NS = p
	plan.HistAlgDuration = time.Since(algStart)
	plan.StatsDuration = time.Since(start)
	return plan, nil
}

// regionalizePlan runs coarsening + regionalization over a built MS and
// wraps the regions in a routing scheme.
func regionalizePlan(sm *matrix.Sample, name string, opts Options) (*Plan, error) {
	nc := opts.NC
	if nc <= 0 {
		nc = 2 * opts.J
	}
	rowCuts, colCuts := tiling.CoarsenGrid(sm, nc, opts.Model, tiling.CoarsenOptions{})
	d := matrix.Coarsen(sm, rowCuts, colCuts)
	regions, err := tiling.Regionalize(d, opts.Model, opts.J,
		tiling.RegionalizeOptions{UseBaselineBSP: opts.BaselineBSP})
	if err != nil {
		return nil, err
	}
	return &Plan{
		Scheme:             partition.NewRegionScheme(name, regions),
		Regions:            regions,
		EstimatedMaxWeight: tiling.MaxWeight(regions),
		NC:                 nc,
		dense:              d,
	}, nil
}

// buildHistograms samples both relations and builds ns-bucket approximate
// equi-depth histograms (§III-A item a).
func buildHistograms(r1, r2 []join.Key, ns, si int, rng *stats.RNG) (*histogram.EquiDepth, *histogram.EquiDepth, error) {
	s1 := sample.FixedSize(r1, si, rng)
	s2 := sample.FixedSize(r2, si, rng)
	rh, err := histogram.FromSample(s1, ns)
	if err != nil {
		return nil, nil, err
	}
	ch, err := histogram.FromSample(s2, ns)
	if err != nil {
		return nil, nil, err
	}
	return rh, ch, nil
}

// inputSampleSize returns si = Θ(ns·log n) ([13], §A1).
func inputSampleSize(ns, n int) int {
	si := int(4 * float64(ns) * math.Log2(float64(n)+2))
	if si < ns {
		si = ns
	}
	return si
}

// countCandidates computes nsc, the number of candidate MS cells, from the
// histogram boundaries alone (no matrix materialization), as §A5 prescribes
// ("we compute nsc by counting the candidate MS cells right after collecting
// a sample of input tuples").
func countCandidates(rh, ch *histogram.EquiDepth, cond join.Condition) int64 {
	cols := ch.Buckets()
	var nsc int64
	for i := 0; i < rh.Buckets(); i++ {
		rLo, rHi := rh.Bounds(i)
		jLo, _ := cond.JoinableRange(rLo)
		_, jHi := cond.JoinableRange(rHi - 1)
		first, last, ok := ch.BucketRange(jLo, jHi)
		if !ok {
			continue
		}
		_ = first
		_ = last
		if last >= first {
			nsc += int64(last - first + 1)
		}
	}
	_ = cols
	return nsc
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
