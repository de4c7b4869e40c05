// Quickstart: plan and execute a skew-resilient parallel band-join with the
// EWH (equi-weight histogram) scheme, and compare it against the 1-Bucket
// and M-Bucket baselines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ewh"
	"ewh/internal/stats"
)

func main() {
	// Two relations of 200k tuples. R2 is Zipf-skewed, so hash-style or
	// input-only partitioning misbalances the output work (join product
	// skew).
	const n = 200000
	rng := stats.NewRNG(7)
	zipf := stats.NewZipf(n, 0.8)
	r1 := make([]ewh.Key, n)
	r2 := make([]ewh.Key, n)
	for i := 0; i < n; i++ {
		r1[i] = rng.Int64n(n)
		r2[i] = zipf.Draw(rng)
	}

	cond := ewh.Band(5) // |R1.A - R2.A| <= 5
	opts := ewh.Options{J: 8, Model: ewh.DefaultBandModel, Seed: 42}

	// The paper's scheme: samples the output distribution, builds the
	// equi-weight histogram, and routes tuples to 8 workers. Its output size
	// m is estimated from a sample of R1 (126k of the 200k keys here), so it
	// is near the executed output below, not equal to it.
	plan, err := ewh.Plan(r1, r2, cond, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EWH plan: %d regions, estimated output size m=%d, stats took %v\n",
		len(plan.Regions), plan.M, plan.Stages.Total().Round(1e6))
	for i, reg := range plan.Regions {
		fmt.Printf("  region %d: R1 keys [%d,%d) x R2 keys [%d,%d), weight %.0f\n",
			i, reg.RowLo, reg.RowHi, reg.ColLo, reg.ColHi, reg.Weight)
	}

	// Execute and compare the three schemes' load balance.
	baselines := map[string]*ewh.PlanResult{"CSIO(EWH)": plan}
	if mb, err := ewh.PlanMBucket(r1, r2, cond, 1000, opts); err == nil {
		baselines["CSI(M-Bucket)"] = mb
	}
	if ob, err := ewh.PlanOneBucket(opts); err == nil {
		baselines["CI(1-Bucket)"] = ob
	}
	fmt.Println("\nscheme          output      network     max-input   max-output  max-work")
	for _, name := range []string{"CI(1-Bucket)", "CSI(M-Bucket)", "CSIO(EWH)"} {
		p := baselines[name]
		res := ewh.Execute(r1, r2, cond, p, ewh.DefaultBandModel, ewh.ExecConfig{Seed: 1})
		fmt.Printf("%-15s %-11d %-11d %-13d %-12d %.0f\n",
			name, res.Output, res.NetworkTuples, res.MaxInput(), res.MaxOutput(), res.MaxWork)
	}
}
