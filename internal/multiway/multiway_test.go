package multiway

import (
	"strings"
	"testing"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/stats"
)

// bruteForce3Way is the ground truth for R1 ⋈_A Mid ⋈_B R3.
func bruteForce3Way(q Query) int64 {
	var out int64
	for _, a := range q.R1 {
		for i := 0; i < q.Mid.Rows(); i++ {
			if !q.CondA.Matches(a, q.Mid.A[i]) {
				continue
			}
			for _, c := range q.R3 {
				if q.CondB.Matches(q.Mid.B[i], c) {
					out++
				}
			}
		}
	}
	return out
}

func randQuery(n int, seed uint64) Query {
	r := stats.NewRNG(seed)
	q := Query{
		R1:    make([]join.Key, n),
		Mid:   MidRelation{A: make([]join.Key, n), B: make([]join.Key, n)},
		R3:    make([]join.Key, n),
		CondA: join.NewBand(2),
		CondB: join.NewBand(1),
	}
	dom := int64(n) * 2
	for i := 0; i < n; i++ {
		q.R1[i] = r.Int64n(dom)
		q.Mid.A[i] = r.Int64n(dom)
		q.Mid.B[i] = r.Int64n(dom)
		q.R3[i] = r.Int64n(dom)
	}
	return q
}

func TestExecuteMatchesBruteForce(t *testing.T) {
	q := randQuery(700, 1)
	res, err := Execute(q, core.Options{J: 4, Model: cost.DefaultBand, Seed: 2}, exec.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForce3Way(q); res.Output != want {
		t.Fatalf("3-way output %d, want %d", res.Output, want)
	}
	if len(res.Stages) != 2 {
		t.Fatalf("%d stages, want 2", len(res.Stages))
	}
	if res.Intermediate != res.Stages[0].Exec.Output {
		t.Fatal("intermediate size mismatch")
	}
}

func TestExecuteSkewedMid(t *testing.T) {
	// A heavy-hitter B key in the middle relation creates a skewed
	// intermediate; stage 2's fresh EWH plan must still balance it.
	r := stats.NewRNG(4)
	n := 800
	q := Query{
		R1:    make([]join.Key, n),
		Mid:   MidRelation{A: make([]join.Key, n), B: make([]join.Key, n)},
		R3:    make([]join.Key, n),
		CondA: join.NewBand(1),
		CondB: join.Equi{},
	}
	for i := 0; i < n; i++ {
		q.R1[i] = r.Int64n(int64(n))
		q.Mid.A[i] = r.Int64n(int64(n))
		if i%3 == 0 {
			q.Mid.B[i] = 7 // heavy hitter
		} else {
			q.Mid.B[i] = r.Int64n(int64(n))
		}
		q.R3[i] = r.Int64n(int64(n))
	}
	res, err := Execute(q, core.Options{J: 6, Model: cost.DefaultBand, Seed: 5}, exec.Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForce3Way(q); res.Output != want {
		t.Fatalf("skewed 3-way output %d, want %d", res.Output, want)
	}
}

func TestExecuteEmptyIntermediate(t *testing.T) {
	q := Query{
		R1:    []join.Key{1, 2, 3},
		Mid:   MidRelation{A: []join.Key{100, 200}, B: []join.Key{5, 6}},
		R3:    []join.Key{5, 6},
		CondA: join.Equi{},
		CondB: join.Equi{},
	}
	res, err := Execute(q, core.Options{J: 2, Model: cost.DefaultBand, Seed: 7}, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != 0 || res.Intermediate != 0 {
		t.Fatalf("output=%d intermediate=%d, want 0/0", res.Output, res.Intermediate)
	}
}

func TestValidation(t *testing.T) {
	bad := Query{
		R1:    []join.Key{1},
		Mid:   MidRelation{A: []join.Key{1, 2}, B: []join.Key{1}},
		R3:    []join.Key{1},
		CondA: join.Equi{}, CondB: join.Equi{},
	}
	if _, err := Execute(bad, core.Options{J: 2}, exec.Config{}); err == nil {
		t.Error("misaligned mid relation accepted")
	}
	empty := Query{CondA: join.Equi{}, CondB: join.Equi{}}
	if _, err := Execute(empty, core.Options{J: 2}, exec.Config{}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestMixedConditions(t *testing.T) {
	// Equality first stage, band second stage.
	r := stats.NewRNG(8)
	n := 500
	q := Query{
		R1:    make([]join.Key, n),
		Mid:   MidRelation{A: make([]join.Key, n), B: make([]join.Key, n)},
		R3:    make([]join.Key, n),
		CondA: join.Equi{},
		CondB: join.NewBand(3),
	}
	for i := 0; i < n; i++ {
		q.R1[i] = r.Int64n(200)
		q.Mid.A[i] = r.Int64n(200)
		q.Mid.B[i] = r.Int64n(2000)
		q.R3[i] = r.Int64n(2000)
	}
	res, err := Execute(q, core.Options{J: 4, Model: cost.DefaultBand, Seed: 9}, exec.Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForce3Way(q); res.Output != want {
		t.Fatalf("mixed 3-way output %d, want %d", res.Output, want)
	}
}

// plainRuntime offers exec.Runtime alone, hiding Local's stage pipeline.
type plainRuntime struct{ exec.Runtime }

// TestExecuteOverNeedsStageRuntime: there is no second strategy to fall back
// to, so a runtime without RunStages is refused by name.
func TestExecuteOverNeedsStageRuntime(t *testing.T) {
	_, err := ExecuteOver(plainRuntime{exec.Local{}}, randQuery(50, 11),
		core.Options{J: 2, Model: cost.DefaultBand}, exec.Config{})
	if err == nil || !strings.Contains(err.Error(), "multiway.plainRuntime") {
		t.Fatalf("err = %v, want one naming the runtime type multiway.plainRuntime", err)
	}
}
