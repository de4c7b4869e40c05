package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// This file is the CI benchmark-regression gate: the workflow regenerates
// the engine benchmark and compares it against the committed
// BENCH_exec.json baseline. Only what is deterministic for a seed and scale
// is gated — the join output exactly, network tuples and modeled makespan
// within the tolerance — so the verdict does not depend on the runner's
// speed or core count. wall_ns is recorded in both files for reading, never
// compared: wall time is the repository benchmark's job (benchmark/, run on
// parent and change by the pipeline).

// Regression is one benchmark metric that violated the gate.
type Regression struct {
	Row    string  // row name, e.g. "netexec-shuffle-binary"
	Metric string  // "output", "network_tuples", "max_work", "missing"
	Base   float64 // baseline value
	Cur    float64 // current value (0 for a missing row)
}

// Ratio returns cur/base (0 when the baseline value is 0).
func (r Regression) Ratio() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Cur / r.Base
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: row missing from current report", r.Row)
	}
	if r.Metric == "output" {
		return fmt.Sprintf("%s: output %v != baseline %v (correctness)", r.Row, r.Cur, r.Base)
	}
	return fmt.Sprintf("%s: %s %.0f vs baseline %.0f (%.2fx)", r.Row, r.Metric, r.Cur, r.Base, r.Ratio())
}

// LoadExecBench reads an ExecBenchReport from a JSON file written by
// WriteExecBenchJSON.
func LoadExecBench(path string) (*ExecBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep ExecBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &rep, nil
}

// CompareExecBench checks cur against base and returns every violation of
// the gate. maxRegress is the tolerated fractional increase for cost
// metrics (0.25 fails on >25% growth). Rules per baseline row, matched by
// name:
//
//   - row absent from cur: violation (coverage must not silently shrink;
//     rows new in cur are fine — they are new coverage)
//   - output: exact match (same seed and scale ⇒ the join result is
//     deterministic; any drift is a correctness bug, not noise)
//   - network_tuples, max_work: cur > base·(1+maxRegress) is a violation;
//     improvements and small wobble pass
//
// The reports must come from the same configuration; mismatched scale or
// seed is an error, not a regression.
func CompareExecBench(base, cur *ExecBenchReport, maxRegress float64) ([]Regression, error) {
	if base.Scale != cur.Scale || base.Seed != cur.Seed {
		return nil, fmt.Errorf("bench: baseline (scale=%d seed=%d) and current (scale=%d seed=%d) configurations differ",
			base.Scale, base.Seed, cur.Scale, cur.Seed)
	}
	curRows := make(map[string]ExecBenchRow, len(cur.Rows))
	for _, r := range cur.Rows {
		curRows[r.Name] = r
	}
	var out []Regression
	limit := 1 + maxRegress
	for _, b := range base.Rows {
		c, ok := curRows[b.Name]
		if !ok {
			out = append(out, Regression{Row: b.Name, Metric: "missing"})
			continue
		}
		if c.Output != b.Output {
			out = append(out, Regression{Row: b.Name, Metric: "output",
				Base: float64(b.Output), Cur: float64(c.Output)})
		}
		costMetrics := []struct {
			name      string
			base, cur float64
		}{
			{"network_tuples", float64(b.NetworkTuples), float64(c.NetworkTuples)},
			{"max_work", b.MaxWork, c.MaxWork},
		}
		for _, m := range costMetrics {
			if m.cur > m.base*limit {
				out = append(out, Regression{Row: b.Name, Metric: m.name, Base: m.base, Cur: m.cur})
			}
		}
	}
	return out, nil
}

// CheckExecBenchAgainst loads the baseline at path, compares cur against it
// and writes one line per violation to w. It returns an error carrying the
// violation count when the gate fails — the ewhbench CLI and the CI job
// turn that into a nonzero exit.
func CheckExecBenchAgainst(w io.Writer, cur *ExecBenchReport, path string, maxRegress float64) error {
	base, err := LoadExecBench(path)
	if err != nil {
		return err
	}
	regs, err := CompareExecBench(base, cur, maxRegress)
	if err != nil {
		return err
	}
	for _, r := range regs {
		fmt.Fprintf(w, "REGRESSION %s\n", r)
	}
	if len(regs) > 0 {
		return fmt.Errorf("bench: %d metric(s) regressed beyond %.0f%% vs %s",
			len(regs), maxRegress*100, path)
	}
	fmt.Fprintf(w, "benchmark gate passed: no deterministic metric regressed beyond %.0f%% vs %s\n",
		maxRegress*100, path)
	return nil
}
