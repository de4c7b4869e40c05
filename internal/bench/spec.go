// Package bench is the experiment harness: one driver per table and figure
// of the paper's evaluation (§VI), each returning the rows/series the paper
// reports as Tables, at a configurable scale; Print is the one formatter.
// Drivers (experiments.go) is the id → driver table; DESIGN.md "Experiment
// index" says what each id reproduces, TestPaperClaims gates each §VI claim
// on the returned rows, and EXPERIMENTS.md records, per id, the paper's
// shape against the measured one and the claim row that gates it.
//
// Times are made commensurable the same way the paper does it: the join
// phase's cost is the modeled makespan max_r w(r) = wi·input + wo·output,
// converted to seconds with a throughput constant calibrated from a real
// single-worker run (the paper fits wi, wo by regression on benchmark runs;
// we additionally fit the seconds-per-weight-unit scale). Statistics
// collection is measured wall-clock directly.
package bench

import (
	"fmt"
	"time"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/sample"
	"ewh/internal/stats"
	"ewh/internal/workload"
)

// JoinSpec is one evaluation join (a Table IV row).
type JoinSpec struct {
	ID    string
	R1    []join.Key
	R2    []join.Key
	Cond  join.Condition
	Model cost.Model
	// P is the CSI bucket count for this join (the paper: 2000, scaled).
	P int
}

// InputSize returns the total input tuples (Table IV "input").
func (s *JoinSpec) InputSize() int { return len(s.R1) + len(s.R2) }

// Config scales the harness.
type Config struct {
	// Scale multiplies the base dataset sizes (1 = ~100k-tuple relations,
	// about 1/1000 of the paper's cluster-scale runs).
	Scale int
	// J is the number of joiner machines (paper: 32).
	J int
	// Seed fixes all randomness.
	Seed uint64
}

// Defaults fills zero fields.
func (c *Config) Defaults() {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.J <= 0 {
		c.J = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// baseBICDRows, baseBCBX and baseBEOCDRows are the Scale=1 sizes: ~1/1000 of
// the paper's (Table IV ÷ 1000, rounded to keep shapes).
const (
	baseBICDRows  = 60000 // per relation (paper: 240M)
	baseBCBX      = 19200 // dense-segment x; 5x per relation (paper x: 19.2M)
	baseBEOCDRows = 18000 // per relation after filters (paper: 18.4M)
)

// MakeJoin builds one of the Table IV joins by id: "BICD", "BCB-<beta>",
// "BEOCD".
func MakeJoin(id string, cfg Config) (*JoinSpec, error) {
	cfg.Defaults()
	switch {
	case id == "BICD":
		r1, r2, cond := workload.BICD(baseBICDRows*cfg.Scale, 0.25, cfg.Seed)
		return &JoinSpec{ID: id, R1: r1, R2: r2, Cond: cond, Model: cost.DefaultBand, P: 1000}, nil
	case id == "BEOCD":
		r1, r2, cond, err := workload.BEOCD(baseBEOCDRows*cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return &JoinSpec{ID: id, R1: r1, R2: r2, Cond: cond, Model: cost.DefaultEquiBand, P: 1000}, nil
	case len(id) > 4 && id[:4] == "BCB-":
		var beta int64
		if _, err := fmt.Sscanf(id[4:], "%d", &beta); err != nil {
			return nil, fmt.Errorf("bench: bad join id %q", id)
		}
		r1, r2, cond := workload.BCB(baseBCBX*cfg.Scale, beta, cfg.Seed)
		return &JoinSpec{ID: id, R1: r1, R2: r2, Cond: cond, Model: cost.DefaultBand, P: 1000}, nil
	}
	return nil, fmt.Errorf("bench: unknown join id %q", id)
}

// TableIVJoins lists the eight evaluation joins in Table IV order.
var TableIVJoins = []string{
	"BICD", "BCB-1", "BCB-2", "BCB-3", "BCB-4", "BCB-8", "BCB-16", "BEOCD",
}

// Throughput is the calibrated conversion from modeled weight units to
// seconds: weight units one worker processes per second.
type Throughput float64

// CalibrateThroughput measures a single worker's processing rate on a
// band-join sized like one region's share, fitting the seconds-per-unit
// scale of the cost model (§VI-A's regression, reduced to the scale factor
// since wi/wo ratios ship with the model).
func CalibrateThroughput(model cost.Model, seed uint64) Throughput {
	const n = 200000
	r1 := workload.Uniform(n, n, seed)
	r2 := workload.Uniform(n, n, seed+1)
	cond := join.NewBand(2)
	start := time.Now()
	out := localjoin.Count(r1, r2, cond)
	elapsed := time.Since(start).Seconds()
	w := model.Weight(float64(2*n), float64(out))
	return Throughput(w / elapsed)
}

// Seconds converts a modeled weight to calibrated seconds.
func (t Throughput) Seconds(weight float64) float64 {
	if t <= 0 {
		return 0
	}
	return weight / float64(t)
}

// SchemeRun is one (join, scheme) measurement. Time accounting follows
// DESIGN.md "Substitutions": the statistics scans and the join phase
// are both expressed in modeled seconds under the same calibrated cost model
// (in the paper both are network-dominated cluster passes; locally only the
// histogram algorithm's CPU time is measured directly).
type SchemeRun struct {
	// StatsSeconds is the modeled cost of two parallel statistics passes
	// over the input; the histogram algorithm's time is not in it.
	StatsSeconds float64
	// HistAlgSeconds is the measured histogram-algorithm CPU time (Table V).
	HistAlgSeconds float64
	JoinSeconds    float64 // calibrated from the modeled makespan
	TotalSeconds   float64
	Output         int64
	MemoryBytes    int64
	MaxWork        float64 // measured max region weight (Fig. 4h bars)
	EstMaxWork     float64 // planner's estimate (CSIO-EST. in Fig. 4h)
}

// RunScheme plans and executes one scheme over the join. scheme is "CI",
// "CSI" or "CSIO".
func RunScheme(spec *JoinSpec, scheme string, cfg Config, tp Throughput) (*SchemeRun, error) {
	cfg.Defaults()
	opts := core.Options{J: cfg.J, Model: spec.Model, Seed: cfg.Seed + 1}
	var plan *core.Plan
	var err error
	switch scheme {
	case "CI":
		plan, err = core.PlanCI(opts)
	case "CSI":
		plan, err = core.PlanCSI(spec.R1, spec.R2, spec.Cond, spec.P, opts)
	case "CSIO":
		plan, err = core.PlanCSIO(spec.R1, spec.R2, spec.Cond, opts)
	default:
		return nil, fmt.Errorf("bench: unknown scheme %q", scheme)
	}
	if err != nil {
		return nil, err
	}
	res := exec.Run(spec.R1, spec.R2, spec.Cond, plan.Scheme, spec.Model, exec.Config{Seed: cfg.Seed + 2})
	statsSeconds := 0.0
	if scheme != "CI" && !plan.Fallback {
		// Two statistics passes over both relations, parallel over J
		// machines (§IV-A: collecting stats repartitions the join keys).
		// Modeled with the same cost model as the join phase, so the
		// stats/join ratio is scale-invariant — at the paper's cluster scale
		// both passes are network-dominated. The histogram algorithm's CPU
		// time (sub-second at the paper's scale, reported separately via
		// HistAlgSeconds / Table V) is excluded from the modeled total.
		scanWork := spec.Model.Wi * 2 * float64(spec.InputSize()) / float64(cfg.J)
		statsSeconds = tp.Seconds(scanWork)
	}
	run := &SchemeRun{
		StatsSeconds:   statsSeconds,
		HistAlgSeconds: plan.HistAlgDuration.Seconds(),
		JoinSeconds:    tp.Seconds(res.MaxWork),
		Output:         res.Output,
		MemoryBytes:    res.MemoryBytes,
		MaxWork:        res.MaxWork,
		EstMaxWork:     plan.EstimatedMaxWeight,
	}
	run.TotalSeconds = run.StatsSeconds + run.JoinSeconds
	return run, nil
}

// RhoOI measures output/input for a join spec (Table IV's ρoi).
func RhoOI(spec *JoinSpec) float64 {
	m := sample.StreamSample(spec.R1, spec.R2, spec.Cond, 0, 8, nil).M
	return float64(m) / float64(spec.InputSize())
}

// Schemes lists the three evaluated operators.
var Schemes = []string{"CI", "CSI", "CSIO"}

// rngFor derives a deterministic RNG for an experiment section.
func rngFor(cfg Config, salt uint64) *stats.RNG {
	return stats.NewRNG(cfg.Seed*2654435761 + salt)
}
