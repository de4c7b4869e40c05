package bench

import (
	"fmt"
	"io"
	"time"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/matrix"
	"ewh/internal/tiling"
	"ewh/internal/workload"
)

// Drivers is the one ordered id → driver table: `ewhbench -exp all` runs it
// top to bottom, -exp ids are validated against it, the usage text lists
// it, and TestDriversSmoke iterates it — a driver added here is reachable
// and tested, one left out is neither.
var Drivers = []struct {
	ID  string
	Run func(io.Writer, Config) error
}{
	{"fig1", Fig1}, {"fig3", Fig3}, {"tab4", TableIV}, {"tab3", TableIII},
	{"fig4a", Fig4a}, {"fig4b", Fig4b}, {"fig4c", Fig4c}, {"fig4d", Fig4d},
	{"fig4e", Fig4e}, {"fig4f", Fig4f}, {"fig4g", Fig4g}, {"fig4h", Fig4h},
	{"tab5", TableV}, {"worst", Worst}, {"ablate", Ablations},
	{"equi", EquiComparison}, {"steal", WorkStealing},
}

// TableIV prints the joins' characteristics table (input/output sizes, ρoi).
func TableIV(w io.Writer, cfg Config) error {
	cfg.Defaults()
	fmt.Fprintf(w, "Table IV: joins' characteristics (scale=%d, sizes in tuples)\n", cfg.Scale)
	fmt.Fprintf(w, "%-8s %12s %12s %8s\n", "join", "input", "output", "rho_oi")
	for _, id := range TableIVJoins {
		spec, err := MakeJoin(id, cfg)
		if err != nil {
			return err
		}
		rho := RhoOI(spec)
		out := int64(rho * float64(spec.InputSize()))
		fmt.Fprintf(w, "%-8s %12d %12d %8.2f\n", id, spec.InputSize(), out, rho)
	}
	return nil
}

// Fig4a prints total execution time (stats + join) for every Table IV join
// under the three schemes.
func Fig4a(w io.Writer, cfg Config) error {
	cfg.Defaults()
	fmt.Fprintf(w, "Fig 4a: total execution time (s), J=%d scale=%d\n", cfg.J, cfg.Scale)
	fmt.Fprintf(w, "%-8s %8s | %10s %10s %10s | %10s %10s\n",
		"join", "rho_oi", "CI total", "CSI total", "CSIO total", "CSI stats", "CSIO stats")
	for _, id := range TableIVJoins {
		spec, err := MakeJoin(id, cfg)
		if err != nil {
			return err
		}
		tp := CalibrateThroughput(spec.Model, cfg.Seed)
		rho := RhoOI(spec)
		runs := map[string]*SchemeRun{}
		for _, s := range Schemes {
			r, err := RunScheme(spec, s, cfg, tp)
			if err != nil {
				return err
			}
			runs[s] = r
		}
		fmt.Fprintf(w, "%-8s %8.2f | %10.4f %10.4f %10.4f | %10.4f %10.4f\n",
			id, rho,
			runs["CI"].TotalSeconds, runs["CSI"].TotalSeconds, runs["CSIO"].TotalSeconds,
			runs["CSI"].StatsSeconds, runs["CSIO"].StatsSeconds)
	}
	return nil
}

// Fig4b prints total execution time for the BCB-β sweep, normalized to
// CSIO's, against the output/input ratio ρoi.
func Fig4b(w io.Writer, cfg Config) error {
	cfg.Defaults()
	fmt.Fprintf(w, "Fig 4b: normalized total time vs rho_oi (BCB sweep), J=%d scale=%d\n", cfg.J, cfg.Scale)
	fmt.Fprintf(w, "%-8s %8s | %8s %8s %8s\n", "join", "rho_oi", "CI", "CSI", "CSIO")
	for _, beta := range []int64{1, 2, 3, 4, 8, 16} {
		spec, err := MakeJoin(fmt.Sprintf("BCB-%d", beta), cfg)
		if err != nil {
			return err
		}
		tp := CalibrateThroughput(spec.Model, cfg.Seed)
		rho := RhoOI(spec)
		totals := map[string]float64{}
		for _, s := range Schemes {
			r, err := RunScheme(spec, s, cfg, tp)
			if err != nil {
				return err
			}
			totals[s] = r.TotalSeconds
		}
		base := totals["CSIO"]
		fmt.Fprintf(w, "BCB-%-4d %8.2f | %8.2f %8.2f %8.2f\n",
			beta, rho, totals["CI"]/base, totals["CSI"]/base, totals["CSIO"]/base)
	}
	return nil
}

// fig4cJoins are the resource-consumption joins of Figs. 4c and 4h.
var fig4cJoins = []string{"BICD", "BCB-3", "BEOCD"}

// Fig4c prints cluster memory consumption per scheme.
func Fig4c(w io.Writer, cfg Config) error {
	cfg.Defaults()
	fmt.Fprintf(w, "Fig 4c: cluster memory consumption (MB), J=%d scale=%d\n", cfg.J, cfg.Scale)
	fmt.Fprintf(w, "%-8s | %10s %10s %10s\n", "join", "CI", "CSI", "CSIO")
	for _, id := range fig4cJoins {
		spec, err := MakeJoin(id, cfg)
		if err != nil {
			return err
		}
		tp := CalibrateThroughput(spec.Model, cfg.Seed)
		mems := map[string]float64{}
		for _, s := range Schemes {
			r, err := RunScheme(spec, s, cfg, tp)
			if err != nil {
				return err
			}
			mems[s] = float64(r.MemoryBytes) / (1 << 20)
		}
		fmt.Fprintf(w, "%-8s | %10.1f %10.1f %10.1f\n", id, mems["CI"], mems["CSI"], mems["CSIO"])
	}
	return nil
}

// scaleRow is one weak-scaling measurement.
type scaleRow struct {
	label   string
	j       int
	totals  map[string]float64
	memesMB map[string]float64
}

// scalabilityRows runs a join at (size ∝ J) for J in {J/2, J, 2J} — the
// paper's 16/32/64 pattern around the configured J.
func scalabilityRows(joinID string, cfg Config) ([]scaleRow, error) {
	cfg.Defaults()
	var rows []scaleRow
	baseJ := cfg.J
	for _, mult := range []int{1, 2, 4} {
		c := cfg
		c.J = baseJ * mult / 2
		if c.J < 1 {
			c.J = 1
		}
		c.Scale = cfg.Scale * mult
		spec, err := MakeJoin(joinID, c)
		if err != nil {
			return nil, err
		}
		tp := CalibrateThroughput(spec.Model, c.Seed)
		row := scaleRow{
			label:   fmt.Sprintf("%dk/%d", spec.InputSize()/1000, c.J),
			j:       c.J,
			totals:  map[string]float64{},
			memesMB: map[string]float64{},
		}
		for _, s := range Schemes {
			r, err := RunScheme(spec, s, c, tp)
			if err != nil {
				return nil, err
			}
			row.totals[s] = r.TotalSeconds
			row.memesMB[s] = float64(r.MemoryBytes) / (1 << 20)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig4d prints BCB-3 weak-scaling execution time.
func Fig4d(w io.Writer, cfg Config) error {
	return scalabilityTime(w, "Fig 4d: BCB-3 scalability, total time (s)", "BCB-3", cfg)
}

// Fig4e prints BCB-3 weak-scaling memory consumption.
func Fig4e(w io.Writer, cfg Config) error {
	return scalabilityMem(w, "Fig 4e: BCB-3 scalability, memory (MB)", "BCB-3", cfg)
}

// Fig4f prints BEOCD weak-scaling execution time.
func Fig4f(w io.Writer, cfg Config) error {
	return scalabilityTime(w, "Fig 4f: BEOCD scalability, total time (s)", "BEOCD", cfg)
}

// Fig4g prints BEOCD weak-scaling memory consumption.
func Fig4g(w io.Writer, cfg Config) error {
	return scalabilityMem(w, "Fig 4g: BEOCD scalability, memory (MB)", "BEOCD", cfg)
}

func scalabilityTime(w io.Writer, title, joinID string, cfg Config) error {
	rows, err := scalabilityRows(joinID, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-14s | %10s %10s %10s\n", "input/J", "CI", "CSI", "CSIO")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s | %10.4f %10.4f %10.4f\n",
			r.label, r.totals["CI"], r.totals["CSI"], r.totals["CSIO"])
	}
	return nil
}

func scalabilityMem(w io.Writer, title, joinID string, cfg Config) error {
	rows, err := scalabilityRows(joinID, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-14s | %10s %10s %10s\n", "input/J", "CI", "CSI", "CSIO")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s | %10.1f %10.1f %10.1f\n",
			r.label, r.memesMB["CI"], r.memesMB["CSI"], r.memesMB["CSIO"])
	}
	return nil
}

// Fig4h prints the maximum region weight per scheme, plus CSIO's planner
// estimate — the cost-model accuracy figure.
func Fig4h(w io.Writer, cfg Config) error {
	cfg.Defaults()
	fmt.Fprintf(w, "Fig 4h: max region weight (model units, millions), J=%d scale=%d\n", cfg.J, cfg.Scale)
	fmt.Fprintf(w, "%-8s | %10s %10s %10s %10s %9s\n", "join", "CI", "CSI", "CSIO", "CSIO-est", "est-err")
	for _, id := range fig4cJoins {
		spec, err := MakeJoin(id, cfg)
		if err != nil {
			return err
		}
		tp := CalibrateThroughput(spec.Model, cfg.Seed)
		maxw := map[string]float64{}
		var est float64
		for _, s := range Schemes {
			r, err := RunScheme(spec, s, cfg, tp)
			if err != nil {
				return err
			}
			maxw[s] = r.MaxWork
			if s == "CSIO" {
				est = r.EstMaxWork
			}
		}
		errPct := 0.0
		if maxw["CSIO"] > 0 {
			errPct = 100 * (est - maxw["CSIO"]) / maxw["CSIO"]
		}
		const mil = 1e6
		fmt.Fprintf(w, "%-8s | %10.3f %10.3f %10.3f %10.3f %8.1f%%\n",
			id, maxw["CI"]/mil, maxw["CSI"]/mil, maxw["CSIO"]/mil, est/mil, errPct)
	}
	return nil
}

// TableV prints CSI's histogram-algorithm time and join time for growing
// bucket counts p, showing that more input statistics cannot cure JPS.
func TableV(w io.Writer, cfg Config) error {
	cfg.Defaults()
	ps := []int{500, 1000, 2000, 4000, 8000, 16000}
	for _, id := range []string{"BEOCD", "BCB-3"} {
		spec, err := MakeJoin(id, cfg)
		if err != nil {
			return err
		}
		tp := CalibrateThroughput(spec.Model, cfg.Seed)
		csio, err := RunScheme(spec, "CSIO", cfg, tp)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Table V (%s): CSI vs p; CSIO total %.2fs (hist alg %.3fs)\n",
			id, csio.TotalSeconds, csio.HistAlgSeconds)
		fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "p", "hist alg (s)", "join (s)", "total (s)")
		for _, p := range ps {
			s := *spec
			s.P = p
			r, err := RunScheme(&s, "CSI", cfg, tp)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8d %12.3f %12.2f %12.2f\n", p, r.HistAlgSeconds, r.JoinSeconds, r.TotalSeconds)
		}
	}
	return nil
}

// TableIII benchmarks the regionalization solvers — baseline BSP versus
// MonotonicBSP — on coarsened matrices of growing size nc, reporting DP
// states and wall time (the complexity-gap ablation).
func TableIII(w io.Writer, cfg Config) error {
	cfg.Defaults()
	fmt.Fprintln(w, "Table III: regionalization cost, BSP vs MonotonicBSP")
	fmt.Fprintf(w, "%-6s | %12s %12s | %12s %12s\n",
		"nc", "BSP states", "BSP time", "Mono states", "Mono time")
	spec, err := MakeJoin("BCB-3", cfg)
	if err != nil {
		return err
	}
	opts := core.Options{J: cfg.J, Model: spec.Model, Seed: cfg.Seed}
	_ = opts
	for _, nc := range []int{8, 16, 32, 64} {
		sm, err := buildSampleMatrix(spec, cfg, 4*nc)
		if err != nil {
			return err
		}
		rowCuts, colCuts := tiling.CoarsenGrid(sm, nc, spec.Model, tiling.CoarsenOptions{})
		d := matrix.Coarsen(sm, rowCuts, colCuts)
		delta := d.TotalWeight(spec.Model) / float64(cfg.J)

		bsp := tiling.NewBSP(d, spec.Model)
		t0 := time.Now()
		bsp.MinRegions(delta, 1<<20)
		bspTime := time.Since(t0)

		mono := tiling.NewMonotonicBSP(d, spec.Model)
		t0 = time.Now()
		mono.MinRegions(delta, 1<<20)
		monoTime := time.Since(t0)

		fmt.Fprintf(w, "%-6d | %12d %12s | %12d %12s\n",
			nc, bsp.Stats().States, bspTime.Round(time.Microsecond),
			mono.Stats().States, monoTime.Round(time.Microsecond))
	}
	return nil
}

// buildSampleMatrix exposes the planner's MS construction for ablations.
func buildSampleMatrix(spec *JoinSpec, cfg Config, ns int) (*matrix.Sample, error) {
	plan, err := core.BuildSampleMatrix(spec.R1, spec.R2, spec.Cond, core.Options{
		J: cfg.J, Model: spec.Model, Seed: cfg.Seed, NS: ns,
	})
	return plan, err
}

// Worst demonstrates the §VI-E worst cases: the bounded slowdown on
// input-cost-dominated joins and the high-selectivity fallback to CI.
func Worst(w io.Writer, cfg Config) error {
	cfg.Defaults()
	spec, err := MakeJoin("BICD", cfg)
	if err != nil {
		return err
	}
	tp := CalibrateThroughput(spec.Model, cfg.Seed)
	csi, err := RunScheme(spec, "CSI", cfg, tp)
	if err != nil {
		return err
	}
	csio, err := RunScheme(spec, "CSIO", cfg, tp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Worst case 1 (input-cost dominated, BICD): CSIO/CSI total = %.3fx (paper: <= 1.04x)\n",
		csio.TotalSeconds/csi.TotalSeconds)

	// High-selectivity join: a near-Cartesian band join must trip the
	// fallback, wasting only the stats time.
	r1 := workload.Uniform(20000*cfg.Scale, 64, cfg.Seed+7)
	r2 := workload.Uniform(20000*cfg.Scale, 64, cfg.Seed+8)
	plan, err := core.PlanCSIO(r1, r2, spec.Cond, core.Options{J: cfg.J, Model: cost.DefaultBand, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Worst case 2 (high selectivity): fallback=%v scheme=%s m/n=%.0f stats wasted=%.3fs\n",
		plan.Fallback, plan.Scheme.Name(),
		float64(plan.M)/float64(len(r1)), plan.StatsDuration.Seconds())
	return nil
}
