// TPC-H-like analytics: the paper's evaluation joins at laptop scale — the
// input-cost-dominated BICD band-join and the output-cost-dominated BEOCD
// equi+band join over a skewed ORDERS table (§VI-A, Appendix B).
//
// The run shows the spectrum argument of the paper's summary: 1-Bucket
// suffers on BICD (input replication), M-Bucket suffers on BEOCD (join
// product skew), and the EWH scheme tracks the better of the two at each
// end.
//
//	go run ./examples/tpch
package main

import (
	"fmt"
	"log"

	"ewh"
	"ewh/internal/workload"
)

func main() {
	const j = 16

	fmt.Println("== BICD: ABS(O1.orderkey - 10*O2.custkey) <= 2, z=0.25, input-cost dominated ==")
	r1, r2, cond := workload.BICD(80000, 0.25, 11)
	runAll(r1, r2, cond, ewh.DefaultBandModel, j)

	fmt.Println("\n== BEOCD: O1.custkey = O2.custkey AND |prio diff| <= 2, output-cost dominated ==")
	b1, b2, bcond, err := workload.BEOCD(20000, 12)
	if err != nil {
		log.Fatal(err)
	}
	runAll(b1, b2, bcond, ewh.DefaultEquiBandModel, j)
}

func runAll(r1, r2 []ewh.Key, cond ewh.Condition, model ewh.CostModel, j int) {
	opts := ewh.Options{J: j, Model: model, Seed: 13}
	plans := make([]*ewh.PlanResult, 0, 3)
	if p, err := ewh.PlanOneBucket(opts); err == nil {
		plans = append(plans, p)
	}
	if p, err := ewh.PlanMBucket(r1, r2, cond, 1000, opts); err == nil {
		plans = append(plans, p)
	}
	p, err := ewh.Plan(r1, r2, cond, opts)
	if err != nil {
		log.Fatal(err)
	}
	plans = append(plans, p)

	fmt.Printf("%-6s %12s %12s %12s %14s\n", "scheme", "output", "shipped", "max-work", "work-imbalance")
	for _, plan := range plans {
		res := ewh.Execute(r1, r2, cond, plan, model, ewh.ExecConfig{Seed: 14})
		var total float64
		for _, w := range res.Workers {
			total += w.Work
		}
		mean := total / float64(len(res.Workers))
		fmt.Printf("%-6s %12d %12d %12.0f %13.2fx\n",
			plan.Scheme.Name(), res.Output, res.NetworkTuples, res.MaxWork, res.MaxWork/mean)
	}
}
