package core

import (
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
