package bench

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

func testCfg() Config { return Config{Scale: 1, J: 4, Seed: 42} }

func TestMakeJoinIDs(t *testing.T) {
	for _, id := range TableIVJoins {
		spec, err := MakeJoin(id, testCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if spec.InputSize() == 0 {
			t.Fatalf("%s: empty input", id)
		}
	}
	if _, err := MakeJoin("nope", testCfg()); err == nil {
		t.Error("unknown id accepted")
	}
	if _, err := MakeJoin("BCB-x", testCfg()); err == nil {
		t.Error("bad BCB beta accepted")
	}
}

func TestRunSchemeAll(t *testing.T) {
	cfg := testCfg()
	spec, err := MakeJoin("BCB-2", Config{Scale: 1, J: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Shrink for test speed.
	spec.R1 = spec.R1[:20000]
	spec.R2 = spec.R2[:20000]
	var outputs []int64
	for _, s := range Schemes {
		r, err := RunScheme(spec, s, cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if r.MaxWork <= 0 || r.StatsWork < 0 || r.TotalWork != r.StatsWork+r.MaxWork {
			t.Fatalf("%s: total %g is not stats %g + max work %g", s, r.TotalWork, r.StatsWork, r.MaxWork)
		}
		outputs = append(outputs, r.Output)
	}
	// All schemes compute the same join.
	if outputs[0] != outputs[1] || outputs[1] != outputs[2] {
		t.Fatalf("schemes disagree on output: %v", outputs)
	}
	if _, err := RunScheme(spec, "bogus", cfg); err == nil {
		t.Error("bogus scheme accepted")
	}
}

// driverTables holds each driver's tables at testCfg, so TestDriversSmoke
// and TestPaperClaims run every driver once between them.
var driverTables = map[string][]Table{}

func tablesOf(t *testing.T, id string) []Table {
	t.Helper()
	if tabs, ok := driverTables[id]; ok {
		return tabs
	}
	for _, d := range Drivers {
		if d.ID == id {
			tabs, err := d.Run(testCfg())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			driverTables[id] = tabs
			return tabs
		}
	}
	t.Fatalf("no driver %q", id)
	return nil
}

// TestDriversSmoke runs every driver in the Drivers table end to end at a
// small configuration: each must return well-formed tables — a title, a
// named label column, one cell per column in every row — that print with
// the label column's name opening the header line and every row's label.
func TestDriversSmoke(t *testing.T) {
	for _, d := range Drivers {
		t.Run(d.ID, func(t *testing.T) {
			tabs := tablesOf(t, d.ID)
			if len(tabs) == 0 {
				t.Fatal("no tables")
			}
			var buf bytes.Buffer
			if err := Print(&buf, tabs); err != nil {
				t.Fatal(err)
			}
			for _, tab := range tabs {
				if tab.Title == "" || tab.Label == "" || len(tab.Cols) == 0 || len(tab.Rows) == 0 {
					t.Errorf("table %q: label column %q, %d columns, %d rows", tab.Title, tab.Label, len(tab.Cols), len(tab.Rows))
				}
				_, after, _ := strings.Cut(buf.String(), tab.Title+"\n")
				if !strings.HasPrefix(strings.TrimSpace(after), tab.Label+" ") {
					t.Errorf("table %q: the header line does not open with %q:\n%s", tab.Title, tab.Label, buf.String())
				}
				for _, r := range tab.Rows {
					if len(r.Cells) != len(tab.Cols) {
						t.Errorf("%q row %q: %d cells for %d columns", tab.Title, r.Label, len(r.Cells), len(tab.Cols))
					}
					if !strings.Contains(buf.String(), r.Label) {
						t.Errorf("printed output lacks row %q:\n%s", r.Label, buf.String())
					}
				}
			}
		})
	}
}

// column returns column name of the ti-th table, one value per row; a lone
// NaN when there is no such column, so the claim reading it fails.
func column(tabs []Table, ti int, name string) []float64 {
	out := []float64{math.NaN()}
	if ti >= len(tabs) {
		return out
	}
	c := slices.IndexFunc(tabs[ti].Cols, func(c Col) bool { return c.Name == name })
	if c < 0 {
		return out
	}
	out = out[:0]
	for _, r := range tabs[ti].Rows {
		out = append(out, r.Cells[c])
	}
	return out
}

// cell returns column name of the row labelled label in the ti-th table,
// NaN when there is no such row or column.
func cell(tabs []Table, ti int, label, name string) float64 {
	if ti < len(tabs) {
		i := slices.IndexFunc(tabs[ti].Rows, func(r Row) bool { return r.Label == label })
		if col := column(tabs, ti, name); i >= 0 && i < len(col) {
			return col[i]
		}
	}
	return math.NaN()
}

// ratios returns a[i] / b[i].
func ratios(a, b []float64) []float64 {
	out := make([]float64, min(len(a), len(b)))
	for i := range out {
		out[i] = a[i] / b[i]
	}
	return out
}

// steps returns v[i+1] - v[i].
func steps(v []float64) []float64 {
	var out []float64
	for i := 1; i < len(v); i++ {
		out = append(out, v[i]-v[i-1])
	}
	return out
}

func absAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Abs(x)
	}
	return out
}

// ratioGrowth is how much CI/CSIO grows from the first weak-scaling row
// (J/2) to the last (2J).
func ratioGrowth(tb []Table) float64 {
	r := column(tb, 0, "CI/CSIO")
	return r[len(r)-1] / r[0]
}

// TestPaperClaims gates the paper's §VI claims on the rows the drivers
// return at Scale 1, J = 4, seed 42 — one row per claim: the driver, what
// is claimed, the measured value and the bound it must meet (got ≥ bound,
// or got ≤ bound when atMost). Every row is in model units or ratios of
// them, never measured seconds, so each value is fixed by the seed. Where
// the measured shape disagrees with the paper the row gates what is
// measured and says "Deviation"; EXPERIMENTS.md "Deviations" lists them.
func TestPaperClaims(t *testing.T) {
	claims := []struct {
		driver, claim string
		got           func(tabs []Table) float64
		atMost        bool
		bound         float64
	}{
		{"fig1", "max weight falls CI > CSI > CSIO (least step)", func(tb []Table) float64 {
			return -slices.Max(steps(column(tb, 0, "max w(r)")))
		}, false, 1},
		{"fig1", "every scheme outputs the nested-loop count, 29 (largest miss)", func(tb []Table) float64 {
			miss := 0.0
			for _, out := range column(tb, 0, "output") {
				miss = max(miss, math.Abs(out-29))
			}
			return miss
		}, true, 0},
		{"fig3", "MH's max region weight stays near wOPT, the no-replication bound", func(tb []Table) float64 {
			return cell(tb, 0, "3 regionalization: MH vs wOPT", "max weight") / cell(tb, 0, "3 regionalization: MH vs wOPT", "bound")
		}, true, 1.25},
		{"fig3", "σ ≤ wOPT/2, or at most 10 % over the heaviest key's self-match cell when that is larger", func(tb []Table) float64 {
			floor := max(cell(tb, 0, "1 sampling: MS, σ vs wOPT/2", "bound"), cell(tb, 0, "heavy key: self-matches vs wOPT/2", "max weight"))
			return cell(tb, 0, "1 sampling: MS, σ vs wOPT/2", "max weight") / floor
		}, true, 1.1},
		{"tab4", "ρoi grows with the BCB band width β (least step)", func(tb []Table) float64 {
			return slices.Min(steps(column(tb, 0, "rho_oi")[1:7]))
		}, false, 1},
		{"tab3", "MonotonicBSP explores fewer DP states than BSP at every nc (largest Mono/BSP)", func(tb []Table) float64 {
			return slices.Max(ratios(column(tb, 0, "Mono states"), column(tb, 0, "BSP states")))
		}, true, 0.5},
		{"fig4a", "Deviation: CI's modeled total is below CSIO's on all eight joins (largest CI/CSIO)", func(tb []Table) float64 {
			return slices.Max(column(tb, 0, "CI/CSIO"))
		}, true, 1},
		{"fig4b", "CSI/CSIO rises with ρoi (least step)", func(tb []Table) float64 {
			return slices.Min(steps(column(tb, 0, "CSI")))
		}, false, 0},
		{"fig4b", "CSIO beats CSI on the whole BCB sweep (least CSI/CSIO)", func(tb []Table) float64 {
			return slices.Min(column(tb, 0, "CSI"))
		}, false, 1.1},
		{"fig4b", "Deviation: CI/CSIO never crosses 1 (largest)", func(tb []Table) float64 {
			return slices.Max(column(tb, 0, "CI"))
		}, true, 1},
		{"fig4c", "CI's replication costs it more memory than CSIO on every join (least CI/CSIO)", func(tb []Table) float64 {
			return slices.Min(ratios(column(tb, 0, "CI"), column(tb, 0, "CSIO")))
		}, false, 1.5},
		{"fig4d", "CSIO's modeled total over CI's falls as input and J grow (CI/CSIO at 2J ÷ at J/2)", ratioGrowth, false, 1},
		{"fig4f", "Deviation: on BEOCD CSIO's modeled total over CI's rises as input and J grow (CI/CSIO at 2J ÷ at J/2)", ratioGrowth, true, 1},
		{"fig4e", "CI's memory over CSIO's grows with J under weak scaling (CI/CSIO at 2J ÷ at J/2)", ratioGrowth, false, 1.5},
		{"fig4g", "CI's memory over CSIO's grows with J under weak scaling (CI/CSIO at 2J ÷ at J/2)", ratioGrowth, false, 1.5},
		{"fig4h", "CSIO's estimate is within 10 % of its measured max region weight (largest |est-err %|)", func(tb []Table) float64 {
			return slices.Max(absAll(column(tb, 0, "est-err %")))
		}, true, 10},
		{"fig4h", "CSIO's max region weight is below CSI's on every join (largest CSIO/CSI)", func(tb []Table) float64 {
			return slices.Max(ratios(column(tb, 0, "CSIO"), column(tb, 0, "CSI")))
		}, true, 1},
		{"fig4h", "Deviation: on BEOCD CSIO's max region weight is above CI's (CSIO/CI)", func(tb []Table) float64 {
			return cell(tb, 0, "BEOCD", "CSIO") / cell(tb, 0, "BEOCD", "CI")
		}, false, 1},
		{"tab5", "more CSI buckets do not close the gap to CSIO under JPS (least CSI/CSIO join)", func(tb []Table) float64 {
			return min(slices.Min(column(tb, 0, "join CSI/CSIO")), slices.Min(column(tb, 1, "join CSI/CSIO")))
		}, false, 1.1},
		{"worst", "§VI-E: CSIO's total is at most 1.04× CSI's on the input-dominated BICD", func(tb []Table) float64 {
			return cell(tb, 0, "BICD", "CSIO/CSI total")
		}, true, 1.04},
		{"worst", "§VI-E: a near-Cartesian join falls back to CI", func(tb []Table) float64 {
			return cell(tb, 1, "uniform, 64 keys", "fallback")
		}, false, 1},
		{"ablate", "nc = 2J lowers max work against nc = J (least gain %)", func(tb []Table) float64 {
			return slices.Min(column(tb, 0, "2J gain %"))
		}, false, 5},
		{"ablate", "a larger output sample estimates max work better (|est-err %| at so×8 ÷ at so×0.5)", func(tb []Table) float64 {
			errs := absAll(column(tb, 2, "est-err %"))
			return errs[len(errs)-1] / errs[0]
		}, true, 0.5},
		{"ablate", "Stream-Sample's dense-segment share over R1's input sample matches the exact d2-weighted share (|difference| at si)", func(tb []Table) float64 {
			return math.Abs(cell(tb, 3, "si", "sampled share") - cell(tb, 3, "si", "exact share"))
		}, true, 0.03},
		{"ablate", "m scaled up from R1's input sample is within 1 % of the exact m (|m-hat/m - 1| at si)", func(tb []Table) float64 {
			return math.Abs(cell(tb, 3, "si", "m-hat/m") - 1)
		}, true, 0.01},
		{"equi", "PRPD's heavy-key handling cuts plain hash's max work (PRPD/Hash)", func(tb []Table) float64 {
			return cell(tb, 0, "HashPRPD", "max-work") / cell(tb, 0, "Hash", "max-work")
		}, true, 0.8},
		{"steal", "more partitions replicate more under CI (shipped at K=8 ÷ K=1)", func(tb []Table) float64 {
			return cell(tb, 0, "K=8", "CI shipped") / cell(tb, 0, "K=1", "CI shipped")
		}, false, 2},
		{"steal", "EWH regions ship almost no more for any K (largest CSIO shipped ÷ least)", func(tb []Table) float64 {
			shipped := column(tb, 0, "CSIO shipped")
			return slices.Max(shipped) / slices.Min(shipped)
		}, true, 1.05},
	}
	for _, c := range claims {
		got := c.got(tablesOf(t, c.driver))
		op, holds := ">=", got >= c.bound
		if c.atMost {
			op, holds = "<=", got <= c.bound
		}
		if !holds {
			t.Errorf("%s: %s: got %.4g, want %s %g", c.driver, c.claim, got, op, c.bound)
			continue
		}
		t.Logf("%-6s %s: %.4g %s %g (margin %.3g)", c.driver, c.claim, got, op, c.bound, math.Abs(got-c.bound))
	}
}

// TestCSIOBeatsCIAndCSIOnMakespan gates the paper's §VI claim on the modeled
// makespan (max region weight — no wall clock, deterministic for the seed):
// over the eight Table IV joins, CSIO is within 5% of the better of CI and
// CSI everywhere, and strictly better than both on every BCB-β row. The 5%
// is where the claim is thin, not slack: on BEOCD CSIO trails CI by 1.6%
// at J=8 and 3.2% at J=4.
func TestCSIOBeatsCIAndCSIOnMakespan(t *testing.T) {
	for _, j := range []int{4, 8} {
		cfg := Config{Scale: 1, J: j, Seed: 42}
		for _, id := range TableIVJoins {
			spec, err := MakeJoin(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			work := map[string]float64{}
			for _, s := range Schemes {
				r, err := RunScheme(spec, s, cfg)
				if err != nil {
					t.Fatalf("J=%d %s %s: %v", j, id, s, err)
				}
				work[s] = r.MaxWork
			}
			ci, csi, csio := work["CI"], work["CSI"], work["CSIO"]
			if csio > 1.05*min(ci, csi) {
				t.Errorf("J=%d %s: CSIO %.0f is more than 5%% over min(CI %.0f, CSI %.0f)", j, id, csio, ci, csi)
			}
			if strings.HasPrefix(id, "BCB-") && (csio >= ci || csio >= csi) {
				t.Errorf("J=%d %s: CSIO %.0f does not beat CI %.0f and CSI %.0f", j, id, csio, ci, csi)
			}
			t.Logf("J=%d %-7s CI %8.0f  CSI %8.0f  CSIO %8.0f", j, id, ci, csi, csio)
		}
	}
}

// TestPrintKeepsSmallCellsNonzero pins Print's one rounding rule: a nonzero
// cell its column's decimals would print as zero gets two significant digits
// instead; every other cell prints with the column's decimals.
func TestPrintKeepsSmallCellsNonzero(t *testing.T) {
	for _, c := range []struct {
		v    float64
		prec int
		want string
	}{
		{0.00004, 4, "0.000040"},
		{-0.00004, 4, "-0.000040"},
		{0.000123, 2, "0.00012"},
		{0.4, 0, "0.40"},
		{0.0004, 4, "0.0004"},
		{0, 4, "0.0000"},
		{12.345, 1, "12.3"},
		{math.NaN(), 2, "-"},
	} {
		var b bytes.Buffer
		err := Print(&b, []Table{{Title: "t", Cols: []Col{{"v", c.prec}}, Rows: []Row{{"r", []float64{c.v}}}}})
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
		if got := strings.Fields(lines[len(lines)-1]); len(got) != 2 || got[1] != c.want {
			t.Errorf("%g in a %d-decimal column printed %q, want %q", c.v, c.prec, got, c.want)
		}
	}
}
