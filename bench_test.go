// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI). Each Benchmark* below drives the corresponding experiment of
// internal/bench at a laptop scale; `go test -bench=. -benchmem` runs them
// all, and `go run ./cmd/ewhbench` prints the full tables. The recorded
// paper-versus-measured shapes live in EXPERIMENTS.md.
package ewh_test

import (
	"io"
	"testing"

	"ewh/internal/bench"
)

// benchCfg is the default benchmark configuration: J=8 machines at scale 1
// (≈ the paper's setup divided by 1000; use ewhbench -j 32 for the paper's
// J).
var benchCfg = bench.Config{Scale: 1, J: 8, Seed: 42}

func runExperiment(b *testing.B, f func(io.Writer, bench.Config) error) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Example reproduces the paper's running example (Fig. 1):
// three schemes partitioning a 16×16 band-join matrix over 3 machines.
func BenchmarkFig1Example(b *testing.B) { runExperiment(b, bench.Fig1) }

// BenchmarkTable3Regionalization measures the BSP-versus-MonotonicBSP
// complexity gap (Table III).
func BenchmarkTable3Regionalization(b *testing.B) { runExperiment(b, bench.TableIII) }

// BenchmarkTable4JoinCharacteristics regenerates the joins' characteristics
// (Table IV: input/output sizes and ρoi).
func BenchmarkTable4JoinCharacteristics(b *testing.B) { runExperiment(b, bench.TableIV) }

// BenchmarkTable5CSIBuckets regenerates CSI's histogram-time/join-time
// trade-off against the bucket count p (Table V).
func BenchmarkTable5CSIBuckets(b *testing.B) { runExperiment(b, bench.TableV) }

// BenchmarkFig4aTotalTime regenerates total execution time for all eight
// joins under CI, CSI and CSIO (Fig. 4a).
func BenchmarkFig4aTotalTime(b *testing.B) { runExperiment(b, bench.Fig4a) }

// BenchmarkFig4bNormalizedTime regenerates the normalized-time-versus-ρoi
// sweep over the BCB band widths (Fig. 4b).
func BenchmarkFig4bNormalizedTime(b *testing.B) { runExperiment(b, bench.Fig4b) }

// BenchmarkFig4cMemory regenerates cluster memory consumption (Fig. 4c).
func BenchmarkFig4cMemory(b *testing.B) { runExperiment(b, bench.Fig4c) }

// BenchmarkFig4dBCBScalingTime regenerates BCB-3 weak-scaling execution time
// (Fig. 4d).
func BenchmarkFig4dBCBScalingTime(b *testing.B) { runExperiment(b, bench.Fig4d) }

// BenchmarkFig4eBCBScalingMemory regenerates BCB-3 weak-scaling memory
// (Fig. 4e).
func BenchmarkFig4eBCBScalingMemory(b *testing.B) { runExperiment(b, bench.Fig4e) }

// BenchmarkFig4fBEOCDScalingTime regenerates BEOCD weak-scaling execution
// time (Fig. 4f).
func BenchmarkFig4fBEOCDScalingTime(b *testing.B) { runExperiment(b, bench.Fig4f) }

// BenchmarkFig4gBEOCDScalingMemory regenerates BEOCD weak-scaling memory
// (Fig. 4g).
func BenchmarkFig4gBEOCDScalingMemory(b *testing.B) { runExperiment(b, bench.Fig4g) }

// BenchmarkFig4hMaxRegionWeight regenerates the maximum-region-weight
// comparison including the planner's estimate (Fig. 4h).
func BenchmarkFig4hMaxRegionWeight(b *testing.B) { runExperiment(b, bench.Fig4h) }

// BenchmarkWorstCases regenerates the §VI-E worst-case analysis (bounded
// slowdown on input-dominated joins; high-selectivity fallback).
func BenchmarkWorstCases(b *testing.B) { runExperiment(b, bench.Worst) }

// BenchmarkAblations runs the design-choice studies (bench.Ablations): nc = 2J
// vs J, AdaptNS, output-sample size, and the Stream-Sample variants.
func BenchmarkAblations(b *testing.B) { runExperiment(b, bench.Ablations) }
