package ewh_test

import (
	"testing"

	"ewh"
	"ewh/internal/localjoin"
	"ewh/internal/workload"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	r1 := workload.Uniform(3000, 2000, 1)
	r2 := workload.Uniform(3000, 2000, 2)
	cond := ewh.Band(3)
	plan, err := ewh.Plan(r1, r2, cond, ewh.Options{J: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := ewh.Execute(r1, r2, cond, plan, ewh.DefaultBandModel, ewh.ExecConfig{Seed: 4})
	want := localjoin.NestedLoopCount(r1, r2, cond)
	if res.Output != want {
		t.Fatalf("output %d, want %d", res.Output, want)
	}
	if res.Scheme != "CSIO" {
		t.Fatalf("scheme %s", res.Scheme)
	}
}

func TestPublicBaselines(t *testing.T) {
	r1 := workload.Uniform(2000, 1500, 5)
	r2 := workload.Uniform(2000, 1500, 6)
	cond := ewh.Band(2)
	want := localjoin.NestedLoopCount(r1, r2, cond)

	mb, err := ewh.PlanMBucket(r1, r2, cond, 64, ewh.Options{J: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := ewh.PlanOneBucket(ewh.Options{J: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*ewh.PlanResult{mb, ob} {
		res := ewh.Execute(r1, r2, cond, plan, ewh.DefaultBandModel, ewh.ExecConfig{Seed: 8})
		if res.Output != want {
			t.Fatalf("%s output %d, want %d", plan.Scheme.Name(), res.Output, want)
		}
	}
}

func TestPublicConditions(t *testing.T) {
	cases := []struct {
		c          ewh.Condition
		a, b       ewh.Key
		wantsMatch bool
	}{
		{ewh.Band(2), 5, 7, true},
		{ewh.Band(2), 5, 8, false},
		{ewh.Equi(), 3, 3, true},
		{ewh.Less(), 1, 2, true},
		{ewh.LessEq(), 2, 2, true},
		{ewh.Greater(), 3, 2, true},
		{ewh.GreaterEq(), 2, 3, false},
	}
	for _, c := range cases {
		if got := c.c.Matches(c.a, c.b); got != c.wantsMatch {
			t.Errorf("%v.Matches(%d,%d) = %v, want %v", c.c, c.a, c.b, got, c.wantsMatch)
		}
	}
}

func TestPublicCalibrate(t *testing.T) {
	runs := []ewh.CalibrationRun{
		{Input: 1000, Output: 0, Seconds: 1000},
		{Input: 0, Output: 1000, Seconds: 200},
		{Input: 1000, Output: 1000, Seconds: 1200},
	}
	m, err := ewh.CalibrateCost(runs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Wi != 1 || m.Wo < 0.15 || m.Wo > 0.25 {
		t.Fatalf("calibrated %+v, want wi=1 wo≈0.2", m)
	}
}

func TestPublicCompositeJoin(t *testing.T) {
	spec := ewh.Composite{SecondaryMax: 7, Beta: 2}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	r1, r2, cond, err := workload.BEOCD(2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ewh.Plan(r1, r2, cond, ewh.Options{J: 4, Model: ewh.DefaultEquiBandModel, Seed: 10, DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	res := ewh.Execute(r1, r2, cond, plan, ewh.DefaultEquiBandModel, ewh.ExecConfig{Seed: 11})
	if want := localjoin.NestedLoopCount(r1, r2, cond); res.Output != want {
		t.Fatalf("output %d, want %d", res.Output, want)
	}
}
