package core

import (
	"fmt"
	"testing"

	"ewh/internal/cost"
	"ewh/internal/workload"
)

// BenchmarkPlanCSIO times the whole planner on the benchmark module's
// adhoc-band inputs: BCB β = 3 with x = 200,000 (1 M keys per relation),
// J = 4, the default band model and seed 42. It is the planner's own number,
// where the module's traced probe replays stages one by one.
func BenchmarkPlanCSIO(b *testing.B) {
	r1, r2, cond := workload.BCB(200_000, 3, 42)
	opts := Options{J: 4, Model: cost.DefaultBand, Seed: 42}
	for b.Loop() {
		if _, err := PlanCSIO(r1, r2, cond, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegionalize times the planner where the histogram algorithm
// dominates it: PlanCSIO on BCB β = 3 with x = 16,000 (80,000 keys per
// relation) at the J of a cluster. Nearly all of it is tiling.Regionalize,
// which grows about J³; J = 128 takes seconds, so the CI smoke step runs
// J = 32 and 64 only.
func BenchmarkRegionalize(b *testing.B) {
	r1, r2, cond := workload.BCB(16_000, 3, 42)
	for _, j := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("J=%d", j), func(b *testing.B) {
			opts := Options{J: j, Model: cost.DefaultBand, Seed: 42}
			for b.Loop() {
				if _, err := PlanCSIO(r1, r2, cond, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
