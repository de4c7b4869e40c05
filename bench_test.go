// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI): BenchmarkDrivers runs each entry of internal/bench's Drivers table
// as a sub-benchmark at a laptop scale and prints its tables (to a discard
// writer) through bench.Print, the formatter `go run ./cmd/ewhbench` uses.
// `go test -bench Drivers -benchmem` runs them all, `-bench 'Drivers/fig1$'`
// one. The paper-versus-measured record, each claim with the TestPaperClaims
// row gating it, lives in EXPERIMENTS.md.
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

// BenchmarkDrivers runs and prints one bench.Drivers entry per sub-benchmark.
func BenchmarkDrivers(b *testing.B) {
	for _, d := range bench.Drivers {
		b.Run(d.ID, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				tables, err := d.Run(benchCfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := bench.Print(io.Discard, tables); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
