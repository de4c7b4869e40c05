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
	"ewh/internal/keysort"
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
	// Seed makes planning deterministic.
	Seed uint64

	// NS overrides the sample-matrix size (default √(2nJ), Lemma 3.1).
	NS int
	// NC overrides the coarsened-matrix size (default 2J, §III-B; the
	// nc = J ablation, bench.Ablations, sets this explicitly).
	NC int
	// OutputSampleFactor sets so = factor · nsc (default 2, §A5).
	OutputSampleFactor float64

	// DisableFallback forces CSIO even for high-selectivity joins (m above
	// highSelectivityRatio·n).
	DisableFallback bool

	// AdaptNS enables the §A5 sample-matrix resizing once the output size m
	// is known: ns' = √(2nJ/ρB) with ρB = m/n. For m > n this shrinks
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
	if o.OutputSampleFactor <= 0 {
		o.OutputSampleFactor = 2
	}
	return nil
}

// highSelectivityRatio is the m/n ratio beyond which CSIO falls back to CI
// (§VI-E: CI is near-optimal when output costs dominate "up to 2 orders of
// magnitude").
const highSelectivityRatio = 200

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
	// M is the join output size as CSIO estimates it: Stream-Sample's exact
	// count over R1's input sample, scaled by n1 over the sample's size, so
	// exact only when the sample holds all of R1 (si ≥ n1). 0 for CI and CSI.
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
		factors[i] = float64(measuredOutput[i]) / max(reg.Output, 1)
	}
	refined, err := tilePlan(plan.dense.ScaleRegions(rects, factors), plan.Scheme.Name(), opts)
	if err != nil {
		return nil, err
	}
	refined.M, refined.NS, refined.NC = plan.M, plan.NS, plan.NC
	return refined, nil
}

// PlanCI builds the statistics-free content-insensitive plan.
func PlanCI(opts Options) (*Plan, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	return &Plan{Scheme: partition.NewCI(opts.J)}, nil
}

// left describes the left relation of a CSIO plan — the one thing the three
// entries of the pipeline below differ in (DESIGN.md "Planner").
type left struct {
	// keys are all of R1, from which the stage draws its input sample, or,
	// with bounds, a summary's uniform sample of R1, which Stream-Sample
	// walks as it is.
	keys []join.Key
	// count is the number of tuples R1 holds; len(keys) when keys are the
	// relation itself.
	count int
	// bounds are R1's equi-depth boundaries when they were computed where
	// the relation lives (a summary's, over ALL its keys); nil means keys are
	// the relation and its histogram is sampled here.
	bounds []join.Key
}

// sample returns the keys Stream-Sample walks and R1's ns-bucket equi-depth
// histogram (§III-A item a). A relation held here is sampled once: a
// fixed-size uniform input sample of si keys serves both, walked in its draw
// order and sorted in a copy for the histogram. A summary brings both.
func (l left) sample(ns, n int, rng *stats.RNG) ([]join.Key, *histogram.EquiDepth, error) {
	if l.bounds != nil {
		rh, err := histogram.FromBounds(l.bounds)
		return l.keys, rh, err
	}
	s := sample.FixedSize(l.keys, inputSampleSize(ns, n), rng)
	rh, err := histogram.FromSample(s, ns)
	return s, rh, err
}

// csiHistograms builds CSI's p-bucket histograms of both relations from
// fixed-size uniform input samples, R1's draws first in rng's stream and R2's
// after.
func csiHistograms(r1, r2 []join.Key, p int, rng *stats.RNG) (rh, ch *histogram.EquiDepth, err error) {
	si := inputSampleSize(p, max(len(r1), len(r2)))
	if rh, err = sampledHistogram(r1, si, p, rng); err != nil {
		return nil, nil, err
	}
	if ch, err = sampledHistogram(r2, si, p, rng); err != nil {
		return nil, nil, err
	}
	return rh, ch, nil
}

// sampledHistogram builds an ns-bucket histogram from a fixed-size uniform
// sample of keys, sorted in place: the sample is a fresh slice, so the copy
// histogram.FromSample would make is not needed.
func sampledHistogram(keys []join.Key, si, ns int, rng *stats.RNG) (*histogram.EquiDepth, error) {
	s := sample.FixedSize(keys, si, rng)
	keysort.Sort(s)
	return histogram.FromSorted(s, ns)
}

// maxOutputSample caps so. PlanCSIO's own histograms keep nsc ≤ ns² ≤ 2nJ,
// but a summary's boundaries arrive from another machine and set MS's row
// count, so without the cap the sender would choose how much memory
// Stream-Sample allocates here.
const maxOutputSample = 1 << 22

// sampled is the sampling stage's product (§III-A): everything
// matrix.BuildSample needs.
type sampled struct {
	rh, ch *histogram.EquiDepth
	pairs  [][2]join.Key
	m      int64 // output size: exact, or scaled up from a sample of R1
	n1, n2 int
}

// sampleStage is the front half of the CSIO pipeline: R1's input sample and
// histogram, R2's multiset and the histogram read off it, then the parallel
// Stream-Sample output sample over R1's sample with its size m. The RNG
// draws come in one order for every entry — R1's input sample (when sampled
// here), output positions, per-shard partner streams, then AdaptNS's R1
// re-sample — which is what keeps plans reproducible. The R2 multiset draws
// nothing, so it is built beside R1's reservoir.
func sampleStage(l left, r2 []join.Key, cond join.Condition, opts Options, rng *stats.RNG) (*sampled, error) {
	n1, n2 := l.count, len(r2)
	if n1 == 0 || n2 == 0 {
		return nil, fmt.Errorf("core: empty input relation (n1=%d n2=%d)", n1, n2)
	}
	n := max(n1, n2)

	// Sampling stage sizes (Lemma 3.1, §A1).
	ns := opts.NS
	if ns <= 0 {
		ns = defaultNS(n, opts.J)
	}
	ns = min(ns, n)
	built := make(chan *sample.KeyMultiset, 1)
	go func() { built <- sample.BuildMultiset(r2) }()
	walk, rh, err := l.sample(ns, n, rng)
	m2 := <-built
	if err != nil {
		return nil, err
	}
	ch, err := m2.Histogram(ns)
	if err != nil {
		return nil, err
	}

	// Candidate MS cells determine the output sample size so = Θ(nsc) (§A5),
	// floored by the Kolmogorov statistics (§A1).
	so := int(opts.OutputSampleFactor * float64(countCandidates(rh, ch, cond)))
	so = min(max(so, 1063), maxOutputSample)
	out := sample.StreamSampleWith(walk, m2, cond, so, opts.J, rng)

	// A sample of R1 gives the size of sample ⋈ R2; m scales by the sampling
	// fraction, and is exact only when the sample is the whole relation.
	m := out.M
	if len(walk) < n1 {
		est := math.Round(float64(out.M) * float64(n1) / float64(len(walk)))
		if est >= math.MaxInt64 {
			return nil, fmt.Errorf("core: output size estimate %.4g does not fit int64 (%d sampled keys stand for a count of %d)",
				est, len(walk), n1)
		}
		m = int64(est)
	}

	// §A5 resizing applies only where R1's histogram is sampled here; R2's
	// is read off the multiset again, and the output sample stays.
	if opts.AdaptNS && l.bounds == nil && m > 0 {
		rho := float64(m) / float64(n)
		nsAdj := int(math.Ceil(math.Sqrt(2 * float64(n) * float64(opts.J) / rho)))
		nsAdj = min(nsAdj, 4*ns) // §A5 case (ii) territory; cap instead of splitting cells
		nsAdj = min(max(nsAdj, 2*opts.J), n)
		// Only rebuild when the change is worth the extra sampling pass.
		if nsAdj*4 < ns*3 || nsAdj*3 > ns*4 {
			if _, rh, err = l.sample(nsAdj, n, rng); err != nil {
				return nil, err
			}
			if ch, err = m2.Histogram(nsAdj); err != nil {
				return nil, err
			}
		}
	}
	return &sampled{rh: rh, ch: ch, pairs: out.Pairs, m: m, n1: n1, n2: n2}, nil
}

// matrix builds the sample matrix MS from the stage's statistics.
func (s *sampled) matrix(cond join.Condition) (*matrix.Sample, error) {
	return matrix.BuildSample(s.rh, s.ch, cond, s.pairs, s.m, s.n1, s.n2, 0)
}

// planCSIO is the paper's histogram algorithm, once: the sampling stage, the
// §VI-E fallback decision, then sample matrix MS → coarsened matrix MC
// (nc = 2J) → MonotonicBSP regionalization into at most J regions. The
// fallback is decided before MS is built: it needs only m.
func planCSIO(l left, r2 []join.Key, cond join.Condition, opts Options) (*Plan, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	start := time.Now()
	st, err := sampleStage(l, r2, cond, opts, stats.NewRNG(opts.Seed))
	if err != nil {
		return nil, err
	}
	if !opts.DisableFallback && float64(st.m) > highSelectivityRatio*float64(max(st.n1, st.n2)) {
		// High-selectivity join: CI's equal-area regions already balance the
		// dominating output cost; the stats time spent so far is the small
		// price §VI-E accounts for.
		p, err := PlanCI(opts)
		if err != nil {
			return nil, err
		}
		p.Fallback = true
		p.M = st.m
		p.StatsDuration = time.Since(start)
		return p, nil
	}

	algStart := time.Now()
	sm, err := st.matrix(cond)
	if err != nil {
		return nil, err
	}
	plan, err := regionalizePlan(sm, "CSIO", opts)
	if err != nil {
		return nil, err
	}
	plan.M = st.m
	plan.NS = sm.Rows
	plan.HistAlgDuration = time.Since(algStart)
	plan.StatsDuration = time.Since(start)
	return plan, nil
}

// PlanCSIO builds the paper's equi-weight histogram plan from both relations.
// It draws one fixed-size uniform input sample of r1 (sample.FixedSize, a
// reservoir of si keys — the paper draws a Bernoulli sample of the same
// expected size). That sample gives R1's histogram and is what Stream-Sample
// walks, in draw order, so m is estimated from it by the sampling fraction:
// exact only when si ≥ len(r1), where the sample is all of r1. R2's histogram
// and Stream-Sample's d2 come from R2's exact multiset.
func PlanCSIO(r1, r2 []join.Key, cond join.Condition, opts Options) (*Plan, error) {
	return planCSIO(left{keys: r1, count: len(r1)}, r2, cond, opts)
}

// PlanCSIOFromSummary builds the equi-weight histogram plan for r1' ⋈ r2
// when r1' is known only through a distributed statistics summary — the
// coordinator side of distributed statistics collection. The summary stands
// in for the left relation everywhere the planner would scan it:
//
//   - the R1 equi-depth histogram comes straight from the summary's merged
//     per-worker boundaries (computed worker-side over ALL local keys, so
//     quantile accuracy does not degrade with the sample cap);
//   - the output sample runs Stream-Sample over the summary's uniform key
//     sample against the full r2 multiset, and its exact per-sample output
//     size scales by Count/len(Keys) to estimate m (exact whenever the
//     sample holds the whole population);
//   - r2 is planner-local (the driver owns that base relation), so its
//     multiset and the histogram read off it are exact, as in PlanCSIO.
//
// The §VI-E fallback applies to the estimated m as it does to the exact one.
// Results are deterministic for a given summary and seed.
func PlanCSIOFromSummary(sum *stats.Summary, r2 []join.Key, cond join.Condition, opts Options) (*Plan, error) {
	if err := sum.Validate(); err != nil {
		return nil, err
	}
	if sum.Count > int64(math.MaxInt) {
		return nil, fmt.Errorf("core: summary count %d overflows", sum.Count)
	}
	return planCSIO(left{keys: sum.Keys, count: int(sum.Count), bounds: sum.Bounds}, r2, cond, opts)
}

// BuildSampleMatrix runs only PlanCSIO's sampling stage (§III-A) and builds
// the sample matrix MS from it, with m estimated as PlanCSIO estimates it,
// whatever the selectivity. Exposed for ablations and diagnostics; PlanCSIO
// continues with coarsening and regionalization.
func BuildSampleMatrix(r1, r2 []join.Key, cond join.Condition, opts Options) (*matrix.Sample, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	st, err := sampleStage(left{keys: r1, count: len(r1)}, r2, cond, opts, stats.NewRNG(opts.Seed))
	if err != nil {
		return nil, err
	}
	return st.matrix(cond)
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
	n1, n2 := len(r1), len(r2)
	if n1 == 0 || n2 == 0 {
		return nil, fmt.Errorf("core: empty input relation (n1=%d n2=%d)", n1, n2)
	}
	if p < 1 {
		return nil, fmt.Errorf("core: p = %d < 1", p)
	}
	p = min(p, n1, n2)
	rh, ch, err := csiHistograms(r1, r2, p, stats.NewRNG(opts.Seed))
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

// regionalizePlan runs coarsening + regionalization over a built MS.
func regionalizePlan(sm *matrix.Sample, name string, opts Options) (*Plan, error) {
	nc := opts.NC
	if nc <= 0 {
		nc = 2 * opts.J
	}
	rowCuts, colCuts := tiling.CoarsenGrid(sm, nc, opts.Model, tiling.CoarsenOptions{})
	plan, err := tilePlan(matrix.Coarsen(sm, rowCuts, colCuts), name, opts)
	if err != nil {
		return nil, err
	}
	plan.NC = nc
	return plan, nil
}

// tilePlan regionalizes a coarsened matrix and wraps the regions in a
// routing scheme; d is retained for Refine.
func tilePlan(d *matrix.Dense, name string, opts Options) (*Plan, error) {
	regions, err := tiling.Regionalize(d, opts.Model, opts.J, tiling.RegionalizeOptions{})
	if err != nil {
		return nil, err
	}
	return &Plan{
		Scheme:             partition.NewRegionScheme(name, regions),
		Regions:            regions,
		EstimatedMaxWeight: tiling.MaxWeight(regions),
		dense:              d,
	}, nil
}

// defaultNS is the sample-matrix size ns = ⌈√(2nJ)⌉ (Lemma 3.1).
func defaultNS(n, j int) int {
	return int(math.Ceil(math.Sqrt(2 * float64(n) * float64(j))))
}

// inputSampleSize returns si = Θ(ns·log n) ([13], §A1).
func inputSampleSize(ns, n int) int {
	return max(int(4*float64(ns)*math.Log2(float64(n)+2)), ns)
}

// InputSampleSize is si for the default ns: how many of R1's keys PlanCSIO
// samples when the larger relation holds n tuples and Options.NS is unset
// (all of them when si ≥ n1).
func InputSampleSize(n, j int) int {
	return inputSampleSize(min(defaultNS(n, j), n), n)
}

// countCandidates computes nsc, the number of candidate MS cells, from the
// histogram boundaries alone (no matrix materialization), as §A5 prescribes
// ("we compute nsc by counting the candidate MS cells right after collecting
// a sample of input tuples").
func countCandidates(rh, ch *histogram.EquiDepth, cond join.Condition) int64 {
	var nsc int64
	for i := 0; i < rh.Buckets(); i++ {
		rLo, rHi := rh.Bounds(i)
		jLo, _ := cond.JoinableRange(rLo)
		_, jHi := cond.JoinableRange(rHi - 1)
		if first, last, ok := ch.BucketRange(jLo, jHi); ok && last >= first {
			nsc += int64(last - first + 1)
		}
	}
	return nsc
}
