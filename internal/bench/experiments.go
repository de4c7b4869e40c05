package bench

import (
	"fmt"
	"slices"
	"time"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/matrix"
	"ewh/internal/tiling"
	"ewh/internal/workload"
)

// Drivers is the one ordered id → driver table: `ewhbench -exp all` runs it
// top to bottom, -exp ids are validated against it, the usage text lists
// it, the root BenchmarkDrivers and TestDriversSmoke iterate it, and
// TestPaperClaims gates the paper's claims on the tables it returns — a
// driver added here is reachable and tested, one left out is neither.
var Drivers = []struct {
	ID  string
	Run func(Config) ([]Table, error)
}{
	{"fig1", Fig1}, {"fig3", Fig3}, {"tab4", TableIV}, {"tab3", TableIII},
	{"fig4a", Fig4a}, {"fig4b", Fig4b}, {"fig4c", Fig4c},
	{"fig4d", scaling("Fig 4d: BCB-3 scalability, total cost (model units, millions)", "BCB-3", totalWork, 3)},
	{"fig4e", scaling("Fig 4e: BCB-3 scalability, memory (MB)", "BCB-3", megabytes, 1)},
	{"fig4f", scaling("Fig 4f: BEOCD scalability, total cost (model units, millions)", "BEOCD", totalWork, 3)},
	{"fig4g", scaling("Fig 4g: BEOCD scalability, memory (MB)", "BEOCD", megabytes, 1)},
	{"fig4h", Fig4h},
	{"tab5", TableV}, {"worst", Worst}, {"ablate", Ablations},
	{"equi", EquiComparison}, {"steal", WorkStealing},
}

// runSchemes builds join id at cfg and runs CI, CSI and CSIO over it, keyed
// by scheme.
func runSchemes(id string, cfg Config) (*JoinSpec, map[string]*SchemeRun, error) {
	spec, err := MakeJoin(id, cfg)
	if err != nil {
		return nil, nil, err
	}
	runs := map[string]*SchemeRun{}
	for _, s := range Schemes {
		if runs[s], err = RunScheme(spec, s, cfg); err != nil {
			return nil, nil, err
		}
	}
	return spec, runs, nil
}

// ratioCols are CI's and CSI's value of a metric over CSIO's, beside the
// values: at a large J the totals shrink to one significant digit, the
// ratios do not.
var ratioCols = cols(2, "CI/CSIO", "CSI/CSIO")

// csioRatios returns the ratioCols cells of one join's runs.
func csioRatios(runs map[string]*SchemeRun, metric func(*SchemeRun) float64) []float64 {
	csio := metric(runs["CSIO"])
	return []float64{metric(runs["CI"]) / csio, metric(runs["CSI"]) / csio}
}

// TableIV reports the joins' characteristics (input/output sizes, ρoi).
func TableIV(cfg Config) ([]Table, error) {
	cfg.Defaults()
	t := Table{
		Title: fmt.Sprintf("Table IV: joins' characteristics (scale=%d, sizes in tuples)", cfg.Scale),
		Label: "join",
		Cols:  append(cols(0, "input", "output"), Col{"rho_oi", 2}),
	}
	for _, id := range TableIVJoins {
		spec, err := MakeJoin(id, cfg)
		if err != nil {
			return nil, err
		}
		rho := RhoOI(spec)
		in := float64(spec.InputSize())
		t.Rows = append(t.Rows, Row{id, []float64{in, float64(int64(rho * in)), rho}})
	}
	return []Table{t}, nil
}

// Fig4a reports the modeled total cost (stats + join) for every Table IV
// join under the three schemes. The stats column is CSIO's statistics cost;
// RunScheme charges CSI the same passes, so one column shows both.
func Fig4a(cfg Config) ([]Table, error) {
	cfg.Defaults()
	t := Table{
		Title: fmt.Sprintf("Fig 4a: total cost (model units, millions), J=%d scale=%d", cfg.J, cfg.Scale),
		Label: "join",
		Cols: slices.Concat([]Col{{"rho_oi", 2}}, cols(3, "CI total", "CSI total", "CSIO total"), ratioCols,
			cols(3, "stats")),
	}
	for _, id := range TableIVJoins {
		spec, runs, err := runSchemes(id, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{id, slices.Concat(
			[]float64{RhoOI(spec)}, perScheme(runs, totalWork),
			csioRatios(runs, totalWork), []float64{runs["CSIO"].StatsWork / 1e6})})
	}
	return []Table{t}, nil
}

// Fig4b reports the modeled total cost for the BCB-β sweep, normalized to
// CSIO's, against the output/input ratio ρoi.
func Fig4b(cfg Config) ([]Table, error) {
	cfg.Defaults()
	t := Table{
		Title: fmt.Sprintf("Fig 4b: total cost (model units) normalized to CSIO's vs rho_oi (BCB sweep), J=%d scale=%d", cfg.J, cfg.Scale),
		Label: "join",
		Cols:  cols(2, "rho_oi", "CI", "CSI", "CSIO"),
	}
	for _, id := range []string{"BCB-1", "BCB-2", "BCB-3", "BCB-4", "BCB-8", "BCB-16"} {
		spec, runs, err := runSchemes(id, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{id, slices.Concat([]float64{RhoOI(spec)}, csioRatios(runs, totalWork), []float64{1})})
	}
	return []Table{t}, nil
}

// fig4cJoins are the resource-consumption joins of Figs. 4c and 4h.
var fig4cJoins = []string{"BICD", "BCB-3", "BEOCD"}

// Fig4c reports cluster memory consumption per scheme.
func Fig4c(cfg Config) ([]Table, error) {
	cfg.Defaults()
	t := Table{
		Title: fmt.Sprintf("Fig 4c: cluster memory consumption (MB), J=%d scale=%d", cfg.J, cfg.Scale),
		Label: "join",
		Cols:  cols(1, Schemes...),
	}
	for _, id := range fig4cJoins {
		_, runs, err := runSchemes(id, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{id, perScheme(runs, megabytes)})
	}
	return []Table{t}, nil
}

func megabytes(r *SchemeRun) float64 { return float64(r.MemoryBytes) / (1 << 20) }

// totalWork is a run's modeled total cost in millions of model units.
func totalWork(r *SchemeRun) float64 { return r.TotalWork / 1e6 }

// perScheme reads one metric off each scheme's run, in Schemes order.
func perScheme(runs map[string]*SchemeRun, metric func(*SchemeRun) float64) []float64 {
	out := make([]float64, len(Schemes))
	for i, s := range Schemes {
		out[i] = metric(runs[s])
	}
	return out
}

// scaling returns a weak-scaling driver (Figs. 4d–4g): joinID at (size ∝ J)
// for J in {J/2, J, 2J} — the paper's 16/32/64 pattern around the
// configured J — reporting metric per scheme and its ratioCols, one row per
// size labelled "<input>k/<J>".
func scaling(title, joinID string, metric func(*SchemeRun) float64, prec int) func(Config) ([]Table, error) {
	return func(cfg Config) ([]Table, error) {
		cfg.Defaults()
		t := Table{Title: title, Label: "input/J", Cols: append(cols(prec, Schemes...), ratioCols...)}
		for _, mult := range []int{1, 2, 4} {
			c := cfg
			c.J = max(cfg.J*mult/2, 1)
			c.Scale = cfg.Scale * mult
			spec, runs, err := runSchemes(joinID, c)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, Row{fmt.Sprintf("%dk/%d", spec.InputSize()/1000, c.J),
				append(perScheme(runs, metric), csioRatios(runs, metric)...)})
		}
		return []Table{t}, nil
	}
}

// Fig4h reports the maximum region weight per scheme, plus CSIO's planner
// estimate and its error — the cost-model accuracy figure.
func Fig4h(cfg Config) ([]Table, error) {
	cfg.Defaults()
	t := Table{
		Title: fmt.Sprintf("Fig 4h: max region weight (model units, millions), J=%d scale=%d", cfg.J, cfg.Scale),
		Label: "join",
		Cols:  append(cols(3, "CI", "CSI", "CSIO", "CSIO-est"), Col{"est-err %", 1}),
	}
	for _, id := range fig4cJoins {
		_, runs, err := runSchemes(id, cfg)
		if err != nil {
			return nil, err
		}
		csio := runs["CSIO"]
		t.Rows = append(t.Rows, Row{id, []float64{runs["CI"].MaxWork / 1e6, runs["CSI"].MaxWork / 1e6,
			csio.MaxWork / 1e6, csio.EstMaxWork / 1e6, 100 * (csio.EstMaxWork - csio.MaxWork) / csio.MaxWork}})
	}
	return []Table{t}, nil
}

// TableV reports CSI's histogram-algorithm time and its join's max region
// weight relative to CSIO's for growing bucket counts p: more input
// statistics cannot cure join product skew.
func TableV(cfg Config) ([]Table, error) {
	cfg.Defaults()
	var out []Table
	for _, id := range []string{"BEOCD", "BCB-3"} {
		spec, err := MakeJoin(id, cfg)
		if err != nil {
			return nil, err
		}
		csio, err := RunScheme(spec, "CSIO", cfg)
		if err != nil {
			return nil, err
		}
		t := Table{
			Title: fmt.Sprintf("Table V (%s): CSI vs p; CSIO max region weight %.0f, total %.0f model units (hist alg %.3fs)",
				id, csio.MaxWork, csio.TotalWork, csio.HistAlgSeconds),
			Label: "p",
			Cols:  []Col{{"hist alg (s)", 3}, {"join CSI/CSIO", 2}, {"total (model units)", 0}},
		}
		for _, p := range []int{500, 1000, 2000, 4000, 8000, 16000} {
			s := *spec
			s.P = p
			r, err := RunScheme(&s, "CSI", cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, Row{fmt.Sprint(p), []float64{r.HistAlgSeconds, r.MaxWork / csio.MaxWork, r.TotalWork}})
		}
		out = append(out, t)
	}
	return out, nil
}

// TableIII benchmarks the regionalization solvers — baseline BSP versus
// MonotonicBSP — on coarsened matrices of growing size nc, reporting DP
// states and wall time (the complexity-gap ablation).
func TableIII(cfg Config) ([]Table, error) {
	cfg.Defaults()
	t := Table{
		Title: "Table III: regionalization cost, BSP vs MonotonicBSP",
		Label: "nc",
		Cols:  []Col{{"BSP states", 0}, {"BSP time (ms)", 3}, {"Mono states", 0}, {"Mono time (ms)", 3}},
	}
	spec, err := MakeJoin("BCB-3", cfg)
	if err != nil {
		return nil, err
	}
	for _, nc := range []int{8, 16, 32, 64} {
		sm, err := core.BuildSampleMatrix(spec.R1, spec.R2, spec.Cond,
			core.Options{J: cfg.J, Model: spec.Model, Seed: cfg.Seed, NS: 4 * nc})
		if err != nil {
			return nil, err
		}
		rowCuts, colCuts := tiling.CoarsenGrid(sm, nc, spec.Model, tiling.CoarsenOptions{})
		d := matrix.Coarsen(sm, rowCuts, colCuts)
		delta := d.TotalWeight(spec.Model) / float64(cfg.J)

		bsp, mono := tiling.NewBSP(d, spec.Model), tiling.NewMonotonicBSP(d, spec.Model)
		t0 := time.Now()
		bsp.MinRegions(delta, 1<<20)
		t1 := time.Now()
		mono.MinRegions(delta, 1<<20)
		t.Rows = append(t.Rows, Row{fmt.Sprint(nc), []float64{
			float64(bsp.Stats().States), t1.Sub(t0).Seconds() * 1e3,
			float64(mono.Stats().States), time.Since(t1).Seconds() * 1e3}})
	}
	return []Table{t}, nil
}

// Worst reports the §VI-E worst cases: the bounded slowdown on
// input-cost-dominated joins and the high-selectivity fallback to CI.
func Worst(cfg Config) ([]Table, error) {
	cfg.Defaults()
	spec, runs, err := runSchemes("BICD", cfg)
	if err != nil {
		return nil, err
	}
	case1 := Table{
		Title: "Worst case 1 (input-cost dominated; paper: CSIO/CSI <= 1.04x)",
		Label: "join",
		Cols:  cols(3, "CSIO/CSI total"),
		Rows:  []Row{{"BICD", []float64{runs["CSIO"].TotalWork / runs["CSI"].TotalWork}}},
	}

	// High-selectivity join: a near-Cartesian band join must trip the
	// fallback, wasting only the stats time.
	r1 := workload.Uniform(20000*cfg.Scale, 64, cfg.Seed+7)
	r2 := workload.Uniform(20000*cfg.Scale, 64, cfg.Seed+8)
	plan, err := core.PlanCSIO(r1, r2, spec.Cond, core.Options{J: cfg.J, Model: cost.DefaultBand, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	fallback := 0.0
	if plan.Fallback {
		fallback = 1
	}
	case2 := Table{
		Title: fmt.Sprintf("Worst case 2 (high selectivity): plans scheme %s", plan.Scheme.Name()),
		Label: "input",
		Cols:  []Col{{"fallback", 0}, {"m/n", 0}, {"stats wasted (s)", 3}},
		Rows: []Row{{"uniform, 64 keys", []float64{fallback,
			float64(plan.M) / float64(len(r1)), plan.Stages.Total().Seconds()}}},
	}
	return []Table{case1, case2}, nil
}
