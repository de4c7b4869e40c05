package core

import (
	"math"
	"testing"
	"time"

	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/sample"
	"ewh/internal/stats"
	"ewh/internal/workload"
)

// FuzzPlanFromSummary fuzzes the one planner entry whose input arrives from
// another machine: the summary in a worker's window reply is decoded and
// handed to PlanCSIOFromSummary as is. Whatever planio.DecodeSummary accepts must plan
// against a fixed base relation without panicking, within a per-input budget
// (the sender must not be able to choose the coordinator's planning cost),
// and yield either an error or a plan that routes every key somewhere.
func FuzzPlanFromSummary(f *testing.F) {
	add := func(s *stats.Summary) {
		data, err := planio.EncodeSummary(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	add(sample.Summarize(workload.Zipfian(5000, 3000, 0.8, 3), 256, 32, stats.NewRNG(4)))
	// A count near MaxInt64 scales m past int64.
	add(&stats.Summary{Count: 1 << 62, Cap: 4, Keys: []join.Key{5}, Bounds: []join.Key{0, 10}})
	// Sampled keys outside the histogram's boundaries.
	add(&stats.Summary{Count: 900, Cap: 8, Keys: []join.Key{-50, 7, 99999}, Bounds: []join.Key{0, 5, 10}})
	// Boundaries and keys at the int64 extremes.
	add(&stats.Summary{Count: 40, Cap: 8, Keys: []join.Key{math.MinInt64, 0, math.MaxInt64},
		Bounds: []join.Key{math.MinInt64, 0, math.MaxInt64}})
	// A histogram far finer than its three keys: the sender picks MS's rows.
	fine := make([]join.Key, 100_000)
	for i := range fine {
		fine[i] = join.Key(i)
	}
	add(&stats.Summary{Count: 1 << 40, Cap: 4, Keys: []join.Key{5, 1000, 3000}, Bounds: fine})

	r2 := workload.Uniform(2000, 4000, 9)
	conds := []join.Condition{join.Equi{}, join.NewBand(3), join.Inequality{Op: join.Less}}
	const budget = 10 * time.Second
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := planio.DecodeSummary(data)
		if err != nil {
			return
		}
		for _, cond := range conds {
			start := time.Now()
			plan, err := PlanCSIOFromSummary(sum, r2, cond, Options{J: 4, Seed: 1})
			if d := time.Since(start); d > budget {
				t.Fatalf("%v: planning took %v, budget %v", cond, d, budget)
			}
			if err != nil {
				continue
			}
			if plan.M < 0 {
				t.Fatalf("%v: m = %d", cond, plan.M)
			}
			rng := stats.NewRNG(2)
			var b partition.RouteBatch
			b.Reset(plan.Scheme.Workers(), 1)
			plan.Scheme.RouteBatchR1(sum.Keys[:1], rng, &b)
			n1 := len(b.Receivers(0))
			plan.Scheme.RouteBatchR2(r2[:1], rng, &b)
			if n1 == 0 || len(b.Receivers(0)) == 0 {
				t.Fatalf("%v: a probe key routes to no worker", cond)
			}
		}
	})
}
