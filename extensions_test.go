package ewh_test

import (
	"sync/atomic"
	"testing"

	"ewh"
	"ewh/internal/localjoin"
	"ewh/internal/workload"
)

func TestFacadeMultiway(t *testing.T) {
	q := ewh.MultiwayQuery{
		R1:    workload.Uniform(500, 400, 1),
		Mid:   ewh.MidRelation{A: workload.Uniform(500, 400, 2), B: workload.Uniform(500, 400, 3)},
		R3:    workload.Uniform(500, 400, 4),
		CondA: ewh.Band(1),
		CondB: ewh.Band(2),
	}
	res, err := ewh.ExecuteMultiway(q, ewh.Options{J: 4, Seed: 5}, ewh.ExecConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth via two nested loops.
	var want int64
	for _, a := range q.R1 {
		for i := range q.Mid.A {
			if !q.CondA.Matches(a, q.Mid.A[i]) {
				continue
			}
			for _, c := range q.R3 {
				if q.CondB.Matches(q.Mid.B[i], c) {
					want++
				}
			}
		}
	}
	if res.Output != want {
		t.Fatalf("multiway output %d, want %d", res.Output, want)
	}
}

func TestFacadeAssignRegions(t *testing.T) {
	r1 := workload.Uniform(3000, 1500, 7)
	r2 := workload.Uniform(3000, 1500, 8)
	// Plan 12 regions for 3 machines with capacities 2:1:1.
	plan, err := ewh.Plan(r1, r2, ewh.Band(2), ewh.Options{J: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ewh.AssignRegions(plan.Regions, []float64{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Load) != 3 {
		t.Fatalf("%d machines", len(a.Load))
	}
	if a.Load[0] < a.Load[1] && a.Load[0] < a.Load[2] {
		t.Error("fastest machine received the least work")
	}
	if a.Makespan() <= 0 {
		t.Error("makespan not computed")
	}
}

func TestFacadeExecuteTuples(t *testing.T) {
	r1 := workload.Uniform(800, 500, 10)
	r2 := workload.Uniform(800, 500, 11)
	cond := ewh.Band(1)
	plan, err := ewh.Plan(r1, r2, cond, ewh.Options{J: 4, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var pairs int64
	res := ewh.ExecuteTuples(ewh.WrapKeys(r1), ewh.WrapKeys(r2), cond, plan,
		ewh.DefaultBandModel, ewh.ExecConfig{Seed: 13},
		func(w int, a, b ewh.Tuple[struct{}]) { atomic.AddInt64(&pairs, 1) })
	if want := localjoin.NestedLoopCount(r1, r2, cond); res.Output != want || pairs != want {
		t.Fatalf("output %d emitted %d, want %d", res.Output, pairs, want)
	}
}

func TestFacadeRefineAndSerialize(t *testing.T) {
	r1 := workload.Zipfian(3000, 1500, 0.6, 14)
	r2 := workload.Zipfian(3000, 1500, 0.6, 15)
	cond := ewh.Band(2)
	opts := ewh.Options{J: 6, Seed: 16}
	plan, err := ewh.Plan(r1, r2, cond, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := ewh.Execute(r1, r2, cond, plan, ewh.DefaultBandModel, ewh.ExecConfig{Seed: 17})
	measured := make([]int64, len(plan.Regions))
	for i := range measured {
		measured[i] = res.Workers[i].Output
	}
	refined, err := ewh.Refine(plan, measured, opts)
	if err != nil {
		t.Fatal(err)
	}
	res2 := ewh.Execute(r1, r2, cond, refined, ewh.DefaultBandModel, ewh.ExecConfig{Seed: 17})
	if res2.Output != res.Output {
		t.Fatalf("refined plan changed the join result: %d vs %d", res2.Output, res.Output)
	}

	data, err := ewh.EncodePlanArtifact(&ewh.PlanArtifact{Scheme: plan.Scheme, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ewh.DecodePlanArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	res3 := ewh.Execute(r1, r2, cond, &ewh.PlanResult{Scheme: back.Scheme}, ewh.DefaultBandModel,
		ewh.ExecConfig{Seed: back.Seed})
	if res3.Output != res.Output {
		t.Fatalf("decoded plan changed the join result: %d vs %d", res3.Output, res.Output)
	}
}

func TestFacadeExecuteStream(t *testing.T) {
	base := workload.Uniform(8000, 4000, 31)
	windows := [][]ewh.Key{
		workload.Uniform(1000, 4000, 32),
		workload.Uniform(1000, 4000, 33),
		workload.Uniform(1000, 4000, 34),
	}
	cond := ewh.Band(2)
	res, err := ewh.ExecuteStream(ewh.NewLocalStreamRuntime(3), base, windows, cond,
		ewh.StreamConfig{Opts: ewh.Options{J: 3, Seed: 35}})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, w := range windows {
		for _, a := range w {
			for _, b := range base {
				if cond.Matches(a, b) {
					want++
				}
			}
		}
	}
	if res.Total != want || len(res.Windows) != len(windows) {
		t.Fatalf("stream total %d over %d windows, want %d over %d",
			res.Total, len(res.Windows), want, len(windows))
	}
}
