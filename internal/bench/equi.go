package bench

import (
	"fmt"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/sample"
	"ewh/internal/workload"
)

// EquiComparison contextualizes §V.1's advice ("for joins that have only
// equality conditions, one should use existing approaches"): on a skewed
// equi-join it compares plain hash partitioning, PRPD-style heavy-hitter
// handling, broadcast join, and the EWH scheme. The expected shape: plain
// hash collapses under a heavy hitter, PRPD fixes it with no statistics
// beyond the heavy-key list, EWH also balances (at the price of its sampling
// phase), and broadcast only competes because the build side is small.
func EquiComparison(cfg Config) ([]Table, error) {
	cfg.Defaults()
	n := 40000 * cfg.Scale
	model := cost.Model{Wi: 1, Wo: 0.2}
	// A strongly skewed probe side: Zipf z=1 gives a genuine heavy hitter.
	r1 := workload.Zipfian(n, int64(n/4), 1.0, cfg.Seed)
	r2 := workload.Zipfian(n/4, int64(n/4), 0.3, cfg.Seed+1)
	cond := join.Equi{}

	heavy := partition.DetectHeavyKeys(sample.FixedSize(r1, 4096, rngFor(cfg, 9)), 0.01)

	schemes := make([]partition.Scheme, 0, 4)
	if h, err := partition.NewHash(cfg.J, nil); err == nil {
		schemes = append(schemes, h)
	}
	if h, err := partition.NewHash(cfg.J, heavy); err == nil {
		schemes = append(schemes, h)
	}
	if b, err := partition.NewBroadcast(cfg.J); err == nil {
		schemes = append(schemes, b)
	}
	plan, err := core.PlanCSIO(r1, r2, cond, core.Options{J: cfg.J, Model: model, Seed: cfg.Seed, DisableFallback: true})
	if err != nil {
		return nil, err
	}
	schemes = append(schemes, plan.Scheme)

	t := Table{
		Title: fmt.Sprintf("Equi-join comparison (§V.1), Zipf z=1 probe side, J=%d, %d heavy keys detected", cfg.J, len(heavy)),
		Label: "scheme",
		Cols:  cols(0, "output", "shipped", "max-input", "max-work"),
	}
	for _, s := range schemes {
		res := exec.Run(r1, r2, cond, s, model, exec.Config{Seed: cfg.Seed + 2})
		t.Rows = append(t.Rows, Row{s.Name(), []float64{
			float64(res.Output), float64(res.NetworkTuples), float64(res.MaxInput()), res.MaxWork}})
	}
	return []Table{t}, nil
}
