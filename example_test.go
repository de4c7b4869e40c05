package ewh_test

import (
	"fmt"

	"ewh"
	"ewh/internal/workload"
)

// ExamplePlan builds an equi-weight histogram plan for a band join and
// executes it, printing the worker count and whether the executed output
// equals the planned m. The planner's m is estimated from a sample of R1, but
// here si = 4·ns·log₂(n+2) ≈ 15k exceeds the 10k keys of R1: the sample is
// the whole relation, so m is exact.
func ExamplePlan() {
	r1 := workload.Uniform(10000, 5000, 1)
	r2 := workload.Uniform(10000, 5000, 2)
	cond := ewh.Band(3)

	plan, err := ewh.Plan(r1, r2, cond, ewh.Options{J: 4, Seed: 3})
	if err != nil {
		panic(err)
	}
	res := ewh.Execute(r1, r2, cond, plan, ewh.DefaultBandModel, ewh.ExecConfig{Seed: 4})
	fmt.Println("scheme:", res.Scheme)
	fmt.Println("workers:", len(res.Workers))
	fmt.Println("output == planned m:", res.Output == plan.M)
	// Output:
	// scheme: CSIO
	// workers: 4
	// output == planned m: true
}

// ExampleCalibrateCost fits the cost model from benchmark observations.
func ExampleCalibrateCost() {
	runs := []ewh.CalibrationRun{
		{Input: 1e6, Output: 0, Seconds: 10},
		{Input: 0, Output: 1e6, Seconds: 2},
		{Input: 1e6, Output: 1e6, Seconds: 12},
	}
	m, err := ewh.CalibrateCost(runs)
	if err != nil {
		panic(err)
	}
	fmt.Println(m)
	// Output:
	// w(r) = 1·input + 0.2·output
}

// ExampleComposite encodes an equality+band predicate over two attributes
// onto one monotonic key.
func ExampleComposite() {
	spec := ewh.Composite{SecondaryMax: 7, Beta: 2}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	cond := spec.Condition()
	a := spec.Encode(42, 3) // custkey 42, priority 3
	b := spec.Encode(42, 5) // same custkey, priority within the band
	c := spec.Encode(43, 3) // different custkey
	fmt.Println(cond.Matches(a, b), cond.Matches(a, c))
	// Output:
	// true false
}
