package core

import (
	"slices"
	"testing"
	"time"

	"ewh/internal/cost"
	"ewh/internal/join"
	"ewh/internal/stage"
	"ewh/internal/stats"
)

var model = cost.Model{Wi: 1, Wo: 0.2}

func randKeys(n int, domain int64, seed uint64) []join.Key {
	r := stats.NewRNG(seed)
	out := make([]join.Key, n)
	for i := range out {
		out[i] = r.Int64n(domain)
	}
	return out
}

func TestOptionsValidation(t *testing.T) {
	if _, err := PlanCI(Options{J: 0}); err == nil {
		t.Error("J=0 accepted")
	}
	r := randKeys(100, 50, 1)
	if _, err := PlanCSI(r, r, join.Equi{}, 0, Options{J: 2}); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestPlanCI(t *testing.T) {
	p, err := PlanCI(Options{J: 16})
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheme.Name() != "CI" || p.Scheme.Workers() != 16 {
		t.Fatalf("scheme %s with %d workers", p.Scheme.Name(), p.Scheme.Workers())
	}
	if p.Stages != (stage.Record{}) {
		t.Errorf("CI should have no stage time, has %v", p.Stages)
	}
}

// The planner's stages, and the ones PlanCSI runs.
var (
	csioStages = []stage.Stage{stage.Sample, stage.MultisetWait, stage.StreamSample,
		stage.Matrix, stage.Coarsen, stage.Regionalize}
	csiStages = []stage.Stage{stage.Sample, stage.Matrix, stage.Coarsen, stage.Regionalize}
)

// checkStages holds a plan's stage record to the stages its entry ran: each
// of them > 0 and every other 0, and, when wall > 0, their sum within 10 % of
// the wall time measured around the call.
func checkStages(t *testing.T, rec stage.Record, ran []stage.Stage, wall time.Duration) {
	t.Helper()
	for s := stage.Stage(0); s < stage.NumStages; s++ {
		if want := slices.Contains(ran, s); (rec[s] > 0) != want {
			t.Errorf("stage %d took %d ns; want it run: %v", s, rec[s], want)
		}
	}
	if total := rec.Total(); wall > 0 && (total > wall || total < wall*9/10) {
		t.Errorf("stages sum to %v of a %v call", total, wall)
	}
}

func TestPlanCSIOBasics(t *testing.T) {
	r1 := randKeys(4000, 2000, 2)
	r2 := randKeys(4000, 2000, 3)
	start := time.Now()
	plan, err := PlanCSIO(r1, r2, join.NewBand(2), Options{J: 8, Model: model, Seed: 4})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme.Name() != "CSIO" {
		t.Fatalf("scheme %s", plan.Scheme.Name())
	}
	if len(plan.Regions) == 0 || len(plan.Regions) > 8 {
		t.Fatalf("%d regions for J=8", len(plan.Regions))
	}
	if plan.M <= 0 {
		t.Error("M not computed")
	}
	if plan.EstimatedMaxWeight <= 0 {
		t.Error("estimated max weight missing")
	}
	checkStages(t, plan.Stages, csioStages, wall)
	if plan.NS <= 0 || plan.NC != 16 {
		t.Errorf("NS=%d NC=%d", plan.NS, plan.NC)
	}
	if plan.Fallback {
		t.Error("unexpected fallback on low-selectivity join")
	}
}

func TestPlanCSIODeterministic(t *testing.T) {
	r1 := randKeys(2000, 1000, 5)
	r2 := randKeys(2000, 1000, 6)
	a, err := PlanCSIO(r1, r2, join.NewBand(1), Options{J: 4, Model: model, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanCSIO(r1, r2, join.NewBand(1), Options{J: 4, Model: model, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Regions) != len(b.Regions) || a.M != b.M ||
		a.EstimatedMaxWeight != b.EstimatedMaxWeight {
		t.Fatal("same seed produced different plans")
	}
}

func TestPlanCSIOBalancesUnderJPS(t *testing.T) {
	// The X-dataset shape (§VI-A): a small dense segment produces most of
	// the output while the bulk of tuples join nothing. CSIO's estimated max
	// weight must be far below the single-machine total.
	r := stats.NewRNG(8)
	var r1, r2 []join.Key
	x := 1500
	for i := 0; i < x; i++ { // dense segment: keys in [0, x/6)
		r1 = append(r1, r.Int64n(int64(x/6)))
		r2 = append(r2, r.Int64n(int64(x/6)))
	}
	y := 4 * x
	for i := 0; i < y; i++ { // sparse segment: keys in [2y, 6y)
		r1 = append(r1, 2*int64(y)+r.Int64n(4*int64(y)))
		r2 = append(r2, 2*int64(y)+r.Int64n(4*int64(y)))
	}
	plan, err := PlanCSIO(r1, r2, join.NewBand(3), Options{J: 8, Model: model, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, reg := range plan.Regions {
		total += reg.Weight
	}
	if plan.EstimatedMaxWeight > total/2 {
		t.Fatalf("max region weight %.0f not balanced vs total %.0f",
			plan.EstimatedMaxWeight, total)
	}
}

func TestPlanCSI(t *testing.T) {
	r1 := randKeys(3000, 1500, 13)
	r2 := randKeys(3000, 1500, 14)
	start := time.Now()
	plan, err := PlanCSI(r1, r2, join.NewBand(2), 128, Options{J: 8, Model: model, Seed: 15})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	checkStages(t, plan.Stages, csiStages, wall)
	if plan.Scheme.Name() != "CSI" {
		t.Fatalf("scheme %s", plan.Scheme.Name())
	}
	if len(plan.Regions) == 0 || len(plan.Regions) > 8 {
		t.Fatalf("%d regions", len(plan.Regions))
	}
	if plan.M != 0 {
		t.Error("CSI must not know m")
	}
}

func TestPlanNCOverride(t *testing.T) {
	r1 := randKeys(2000, 1000, 16)
	r2 := randKeys(2000, 1000, 17)
	plan, err := PlanCSIO(r1, r2, join.NewBand(1), Options{J: 4, Model: model, Seed: 18, NC: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NC != 4 {
		t.Fatalf("NC = %d, want 4", plan.NC)
	}
}

func TestInputSampleSize(t *testing.T) {
	if si := inputSampleSize(100, 1000000); si < 100*4 {
		t.Fatalf("si = %d too small for ns=100", si)
	}
	if si := inputSampleSize(10, 10); si < 10 {
		t.Fatal("si below ns")
	}
}

// TestLemma31SigmaBound property-checks Lemma 3.1: with ns = √(2nJ), the
// maximum MS cell weight σ is at most half the optimum partitioning's
// maximum region weight. The proof lower-bounds wOPT by w(M)/J (the
// no-replication bound), so we check σ ≤ (wi·2n + wo·m)/(2J) on random
// workloads with m >= n.
func TestLemma31SigmaBound(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := stats.NewRNG(seed)
		n := 2000 + int(r.Int64n(3000))
		j := 2 + int(r.Int64n(14))
		domain := int64(n) / (1 + r.Int64n(4)) // denser domains raise m
		r1 := make([]join.Key, n)
		r2 := make([]join.Key, n)
		for i := 0; i < n; i++ {
			r1[i] = r.Int64n(domain)
			r2[i] = r.Int64n(domain)
		}
		cond := join.NewBand(1 + r.Int64n(3))
		sm, err := BuildSampleMatrix(r1, r2, cond, Options{J: j, Model: model, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if sm.M < int64(n) {
			continue // lemma assumes m >= n
		}
		sigma := sm.MaxCellWeight(model)
		wOPT := (model.Wi*2*float64(n) + model.Wo*float64(sm.M)) / float64(j)
		// Sampling noise can push individual cells past the deterministic
		// bound; allow 25% slack over σ ≤ wOPT/2.
		if sigma > 0.5*wOPT*1.25 {
			t.Errorf("seed %d (n=%d J=%d m=%d): σ=%.0f > wOPT/2=%.0f",
				seed, n, j, sm.M, sigma, 0.5*wOPT)
		}
	}
}

func TestPlanCSIOAsymmetricSizes(t *testing.T) {
	// Relations of very different sizes: the larger drives ns; routing and
	// weights must stay consistent.
	r1 := randKeys(8000, 4000, 30)
	r2 := randKeys(500, 4000, 31)
	plan, err := PlanCSIO(r1, r2, join.NewBand(2), Options{J: 6, Model: model, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) == 0 {
		t.Fatal("no regions")
	}
}

func TestPlanCSIOAdaptNS(t *testing.T) {
	// A high-rho join must shrink ns when AdaptNS is on.
	r1 := randKeys(6000, 500, 33)
	r2 := randKeys(6000, 500, 34)
	base, err := PlanCSIO(r1, r2, join.NewBand(2), Options{J: 4, Model: model, Seed: 35, DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := PlanCSIO(r1, r2, join.NewBand(2), Options{J: 4, Model: model, Seed: 35, DisableFallback: true, AdaptNS: true})
	if err != nil {
		t.Fatal(err)
	}
	if adapted.NS >= base.NS {
		t.Fatalf("AdaptNS did not shrink ns: %d >= %d (m=%d n=%d)",
			adapted.NS, base.NS, adapted.M, len(r1))
	}
	if adapted.M != base.M {
		t.Fatal("AdaptNS changed m")
	}
}

func TestPlanCSIOInequalityWithFallbackDisabled(t *testing.T) {
	// Inequality joins are high-selectivity (≈ half the Cartesian product);
	// with the fallback disabled the scheme must still be exact, just
	// replication-heavy.
	r1 := randKeys(400, 300, 36)
	r2 := randKeys(400, 300, 37)
	cond := join.Inequality{Op: join.LessEq}
	plan, err := PlanCSIO(r1, r2, cond, Options{J: 4, Model: model, Seed: 38, DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme.Name() != "CSIO" {
		t.Fatalf("scheme %s", plan.Scheme.Name())
	}
}

func TestRefineCorrectsEstimates(t *testing.T) {
	// Plan, then pretend one region produced 10x its estimated output; the
	// refined plan must split work away from the corrected hot region.
	r1 := randKeys(4000, 2000, 40)
	r2 := randKeys(4000, 2000, 41)
	opts := Options{J: 6, Model: model, Seed: 42}
	plan, err := PlanCSIO(r1, r2, join.NewBand(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	measured := make([]int64, len(plan.Regions))
	for i, reg := range plan.Regions {
		measured[i] = int64(reg.Output)
	}
	measured[0] *= 10 // feedback: region 0 was badly underestimated
	refined, err := Refine(plan, measured, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined.Regions) == 0 || len(refined.Regions) > opts.J {
		t.Fatalf("refined plan has %d regions", len(refined.Regions))
	}
	// Under the corrected weights, the refined plan must balance better than
	// the original plan would: compute the original regions' weights on the
	// corrected matrix by scaling region 0's output.
	origHot := plan.Regions[0]
	correctedOrigMax := model.Weight(origHot.Input, origHot.Output*10)
	if refined.EstimatedMaxWeight >= correctedOrigMax {
		t.Fatalf("refined max %.0f not better than stale plan's corrected max %.0f",
			refined.EstimatedMaxWeight, correctedOrigMax)
	}
}

func TestRefineValidation(t *testing.T) {
	ci, err := PlanCI(Options{J: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Refine(ci, nil, Options{J: 4}); err == nil {
		t.Error("refining a CI plan accepted")
	}
	r1 := randKeys(1000, 500, 43)
	r2 := randKeys(1000, 500, 44)
	plan, err := PlanCSIO(r1, r2, join.NewBand(1), Options{J: 4, Model: model, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Refine(plan, []int64{1}, Options{J: 4, Model: model}); err == nil {
		t.Error("mismatched measurement vector accepted")
	}
}

func TestRefineIdempotentOnAccurateFeedback(t *testing.T) {
	// Feeding back exactly the estimated outputs must not degrade the plan.
	r1 := randKeys(3000, 1500, 46)
	r2 := randKeys(3000, 1500, 47)
	opts := Options{J: 4, Model: model, Seed: 48}
	plan, err := PlanCSIO(r1, r2, join.NewBand(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	measured := make([]int64, len(plan.Regions))
	for i, reg := range plan.Regions {
		measured[i] = int64(reg.Output)
	}
	refined, err := Refine(plan, measured, opts)
	if err != nil {
		t.Fatal(err)
	}
	if refined.EstimatedMaxWeight > plan.EstimatedMaxWeight*1.05 {
		t.Fatalf("accurate feedback degraded the plan: %.0f -> %.0f",
			plan.EstimatedMaxWeight, refined.EstimatedMaxWeight)
	}
}
