package stage

import "testing"

// BenchmarkMark times one stamp: a clock read and a stage's sum.
func BenchmarkMark(b *testing.B) {
	clk := Start()
	for i := 0; b.Loop(); i++ {
		clk.Mark(Stage(i) % NumStages)
	}
}
