package core

import (
	"fmt"
	"testing"

	"ewh/internal/cost"
	"ewh/internal/stage"
	"ewh/internal/workload"
)

// BenchmarkPlanCSIO times the whole planner on the benchmark module's
// adhoc-band inputs: BCB β = 3 with x = 200,000 (1 M keys per relation),
// J = 4, the default band model and seed 42. It is the planner's own number,
// where the module's traced probe replays stages one by one. Each planner
// stage's mean time per plan is reported beside ns/op, read from
// Plan.Stages, so a planner change names the stage it moved.
func BenchmarkPlanCSIO(b *testing.B) {
	r1, r2, cond := workload.BCB(200_000, 3, 42)
	opts := Options{J: 4, Model: cost.DefaultBand, Seed: 42}
	var sum stage.Record
	plans := 0
	for b.Loop() {
		p, err := PlanCSIO(r1, r2, cond, opts)
		if err != nil {
			b.Fatal(err)
		}
		sum.Add(&p.Stages)
		plans++
	}
	for i, s := range csioStages {
		b.ReportMetric(float64(sum[s])/1e6/float64(plans), csioStageNames[i]+"-ms/plan")
	}
}

// csioStageNames names csioStages' entries in benchmark metric units.
var csioStageNames = []string{"Sample", "MultisetWait", "StreamSample", "Matrix", "Coarsen", "Regionalize"}

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
