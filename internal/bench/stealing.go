package bench

import (
	"fmt"
	"slices"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/partition"
)

// WorkStealing quantifies §V's argument against work-stealing for joins:
// stealing needs many more partitions than machines (each machine pulls a
// new one when idle), but "increasing the number of partitions inherently
// increases replication" — splitting a partition duplicates the opposite
// relation's tuples on both halves. The experiment plans K·J partitions for
// K ∈ {1, 2, 4, 8}, schedules them onto J machines with the greedy pull
// order (LPT — what an idle-steals-next runtime converges to), and reports
// shipped tuples versus the resulting makespan.
//
// Two partitioners are measured: over a generic full-coverage grid (CI
// replication = rows+cols grows with √(KJ), §V's "inherently increases
// replication"), and over EWH regions (near-diagonal band-join tilings pay
// almost no extra replication while the makespan barely improves — the
// equi-weight histogram already equalized the pieces, so stealing has
// nothing left to win).
func WorkStealing(cfg Config) ([]Table, error) {
	cfg.Defaults()
	spec, err := MakeJoin("BCB-3", cfg)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: fmt.Sprintf("Work-stealing granularity (§V), BCB-3, J=%d machines", cfg.J),
		Label: "partitions",
		Cols:  append(cols(0, "regions", "CI shipped", "CSIO shipped", "max machine"), Col{"vs K=1", 2}),
	}
	var base float64
	for _, k := range []int{1, 2, 4, 8} {
		ciScheme := partition.NewCI(k * cfg.J)
		gridRows, gridCols := ciScheme.Grid()
		ciShipped := int64(len(spec.R1))*int64(gridCols) + int64(len(spec.R2))*int64(gridRows)
		plan, err := core.PlanCSIO(spec.R1, spec.R2, spec.Cond, core.Options{J: k * cfg.J, Model: spec.Model, Seed: cfg.Seed + 1})
		if err != nil {
			return nil, err
		}
		res := exec.Run(spec.R1, spec.R2, spec.Cond, plan.Scheme, spec.Model, exec.Config{Seed: cfg.Seed + 2})
		// Pull-scheduling of the measured region works onto J machines; the
		// clone keeps the plan's scheme, which shares its regions, intact.
		regions := slices.Clone(plan.Regions)
		for i := range res.Workers {
			regions[i].Weight = res.Workers[i].Work
		}
		a, err := partition.AssignRegions(regions, slices.Repeat([]float64{1}, cfg.J))
		if err != nil {
			return nil, err
		}
		makespan := a.Makespan()
		if k == 1 {
			base = makespan
		}
		t.Rows = append(t.Rows, Row{fmt.Sprintf("K=%d", k), []float64{
			float64(len(regions)), float64(ciShipped), float64(res.NetworkTuples), makespan, makespan / base}})
	}
	return []Table{t}, nil
}
