package core

import (
	"testing"

	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/sample"
	"ewh/internal/stats"
	"ewh/internal/workload"
)

// shardSummaries splits r1 into n shards and summarizes each — the worker
// side of distributed statistics, in miniature.
func shardSummaries(r1 []join.Key, shards, cap, buckets int) []*stats.Summary {
	out := make([]*stats.Summary, shards)
	for w := 0; w < shards; w++ {
		lo, hi := len(r1)*w/shards, len(r1)*(w+1)/shards
		out[w] = sample.Summarize(r1[lo:hi], cap, buckets, stats.NewRNG(uint64(w)*7+1))
	}
	return out
}

func mergeAll(t *testing.T, sums []*stats.Summary) *stats.Summary {
	t.Helper()
	merged := sums[0]
	var err error
	for _, s := range sums[1:] {
		if merged, err = stats.MergeSummaries(merged, s); err != nil {
			t.Fatal(err)
		}
	}
	return merged
}

func TestPlanCSIOFromSummaryBalancesSkew(t *testing.T) {
	// A skewed intermediate, known to the planner only through merged shard
	// summaries: the resulting CSIO plan must beat CI's makespan on the same
	// workload, just as the full-knowledge planner does — the paper's core
	// claim carried over to distributed statistics.
	r1 := workload.Zipfian(20000, 8000, 0.7, 41)
	r2 := workload.Zipfian(15000, 8000, 0.7, 43)
	cond := join.NewBand(2)
	opts := Options{J: 8, Seed: 17}

	merged := mergeAll(t, shardSummaries(r1, 4, 2048, 128))
	if merged.Count != int64(len(r1)) {
		t.Fatalf("merged count %d, want %d", merged.Count, len(r1))
	}
	plan, err := PlanCSIOFromSummary(merged, r2, cond, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fallback {
		t.Fatal("summary plan fell back to CI on a moderate-selectivity workload")
	}
	if plan.Scheme.Name() != "CSIO" {
		t.Fatalf("summary plan built %q, want CSIO", plan.Scheme.Name())
	}
	if plan.Scheme.Workers() > opts.J {
		t.Fatalf("plan routes to %d workers, J = %d", plan.Scheme.Workers(), opts.J)
	}

	// The estimated output size must be in the right ballpark of the truth.
	exactM := sample.StreamSample(r1, r2, cond, 0, 4, nil).M
	if plan.M < exactM/3 || plan.M > exactM*3 {
		t.Fatalf("estimated m = %d, exact m = %d: summary statistics badly off", plan.M, exactM)
	}

	// The distributed-statistics claim itself: the plan built from capped
	// summaries must execute about as well as the plan built from the FULL
	// relation — same output, makespan within a modest factor.
	model := cost.DefaultBand
	cfg := exec.Config{Seed: 23, Mappers: 2}
	fromSummary := exec.Run(r1, r2, cond, plan.Scheme, model, cfg)
	fullPlan, err := PlanCSIO(r1, r2, cond, opts)
	if err != nil {
		t.Fatal(err)
	}
	fromFull := exec.Run(r1, r2, cond, fullPlan.Scheme, model, cfg)
	if fromSummary.Output != fromFull.Output {
		t.Fatalf("schemes disagree on output: summary %d full %d", fromSummary.Output, fromFull.Output)
	}
	if fromSummary.MaxWork > 1.5*fromFull.MaxWork {
		t.Fatalf("summary-built makespan %.0f is far off the full-knowledge plan's %.0f",
			fromSummary.MaxWork, fromFull.MaxWork)
	}

	// Routing must be total even for keys the sample never saw.
	probes := []join.Key{r1[0], r1[len(r1)/2], -999999, 999999}
	var b partition.RouteBatch
	b.Reset(plan.Scheme.Workers(), len(probes))
	plan.Scheme.RouteBatchR1(probes, stats.NewRNG(1), &b)
	for i, k := range probes {
		if len(b.Receivers(i)) == 0 {
			t.Fatalf("key %d routes nowhere", k)
		}
	}
}
