package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func row(name string, wall, out, net int64, maxWork float64) ExecBenchRow {
	return ExecBenchRow{Name: name, WallNS: wall, Output: out,
		NetworkTuples: net, MaxWork: maxWork}
}

func TestCompareExecBenchGate(t *testing.T) {
	base := &ExecBenchReport{Scale: 1, Seed: 42, Rows: []ExecBenchRow{
		row("a", 100_000_000, 50, 200, 10),
		row("b", 200_000_000, 70, 300, 20),
	}}

	t.Run("identical passes", func(t *testing.T) {
		regs, err := CompareExecBench(base, base, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 0 {
			t.Fatalf("unexpected regressions: %v", regs)
		}
	})

	t.Run("within tolerance passes, improvements pass", func(t *testing.T) {
		cur := &ExecBenchReport{Scale: 1, Seed: 42, Rows: []ExecBenchRow{
			row("a", 100_000_000, 50, 240, 9), // +20% network, under the 25% gate; less work
			row("b", 200_000_000, 70, 300, 20),
		}}
		regs, err := CompareExecBench(base, cur, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 0 {
			t.Fatalf("unexpected regressions: %v", regs)
		}
	})

	t.Run("wall time is recorded, never gated", func(t *testing.T) {
		cur := &ExecBenchReport{Scale: 1, Seed: 42, CPUs: 8, GOMAXPROCS: 8, Rows: []ExecBenchRow{
			row("a", 900_000_000, 50, 200, 10), // 9x slower, another core count
			row("b", 200_000_000, 70, 300, 20),
		}}
		regs, err := CompareExecBench(base, cur, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 0 {
			t.Fatalf("wall time or parallelism shape gated: %v", regs)
		}
	})

	t.Run("output drift is a correctness failure either direction", func(t *testing.T) {
		cur := &ExecBenchReport{Scale: 1, Seed: 42, Rows: []ExecBenchRow{
			row("a", 100_000_000, 49, 200, 10), // fewer results than the baseline
			row("b", 200_000_000, 70, 300, 20),
		}}
		regs, err := CompareExecBench(base, cur, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || regs[0].Metric != "output" {
			t.Fatalf("want one output regression, got %v", regs)
		}
	})

	t.Run("missing row caught, new rows ignored", func(t *testing.T) {
		cur := &ExecBenchReport{Scale: 1, Seed: 42, Rows: []ExecBenchRow{
			row("a", 100_000_000, 50, 200, 10),
			row("c", 1, 1, 1, 1), // new coverage: fine
		}}
		regs, err := CompareExecBench(base, cur, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || regs[0].Row != "b" || regs[0].Metric != "missing" {
			t.Fatalf("want row b reported missing, got %v", regs)
		}
	})

	t.Run("network and max_work gated", func(t *testing.T) {
		cur := &ExecBenchReport{Scale: 1, Seed: 42, Rows: []ExecBenchRow{
			row("a", 100_000_000, 50, 300, 10), // +50% network
			row("b", 200_000_000, 70, 300, 30), // +50% max_work
		}}
		regs, err := CompareExecBench(base, cur, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 2 || regs[0].Metric != "network_tuples" || regs[1].Metric != "max_work" {
			t.Fatalf("want network_tuples and max_work regressions, got %v", regs)
		}
	})

	t.Run("config mismatch is an error", func(t *testing.T) {
		cur := &ExecBenchReport{Scale: 2, Seed: 42}
		if _, err := CompareExecBench(base, cur, 0.25); err == nil {
			t.Fatal("mismatched scale accepted")
		}
	})
}

func TestCheckExecBenchAgainstRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	cfgRep := &ExecBenchReport{Scale: 1, Seed: 42, Rows: []ExecBenchRow{
		row("a", 100_000_000, 50, 200, 10),
	}}
	// Write the baseline through the same JSON shape the CLI emits.
	if err := writeReportJSON(path, cfgRep); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := CheckExecBenchAgainst(&sb, cfgRep, path, 0.25); err != nil {
		t.Fatalf("gate failed on identical report: %v (output %q)", err, sb.String())
	}
	if !strings.Contains(sb.String(), "passed") {
		t.Fatalf("output %q lacks pass notice", sb.String())
	}
	bad := &ExecBenchReport{Scale: 1, Seed: 42, Rows: []ExecBenchRow{
		row("a", 100_000_000, 50, 1000, 10),
	}}
	sb.Reset()
	err := CheckExecBenchAgainst(&sb, bad, path, 0.25)
	if err == nil {
		t.Fatal("5x network regression passed the gate")
	}
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Fatalf("output %q lacks regression line", sb.String())
	}
}
