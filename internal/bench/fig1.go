package bench

import (
	"cmp"
	"fmt"
	"slices"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
)

// fig1R1 and fig1R2 are the 16-tuple relations of the paper's running
// example (Fig. 1): a band-join |R1.A - R2.A| <= 1 over small skewed key
// sets, partitioned across 3 machines.
var (
	fig1R1 = []join.Key{17, 13, 9, 9, 20, 3, 6, 19, 5, 5, 15, 23, 3, 22, 25, 7}
	fig1R2 = []join.Key{19, 15, 11, 10, 23, 9, 22, 5, 5, 17, 2, 6, 9, 25, 3, 27}
)

// Fig1 reproduces the running example: the three schemes partition the
// 16×16 band-join matrix over 3 machines; each row is one scheme's maximum
// weight, its machines' weights under w(r) = input + output (largest
// first) and its output, showing the CI > CSI > CSIO maximum-weight
// ordering of Figs. 1b-1d. Only cfg.Seed is read: the example fixes its own
// data and J.
func Fig1(cfg Config) ([]Table, error) {
	cfg.Defaults()
	cond := join.NewBand(1)
	model := cost.Model{Wi: 1, Wo: 1} // the example's unit weight function
	const j = 3

	opts := core.Options{J: j, Model: model, Seed: cfg.Seed, DisableFallback: true}
	plans := make(map[string]*core.Plan)
	var err error
	if plans["CI"], err = core.PlanCI(opts); err != nil {
		return nil, err
	}
	if plans["CSI"], err = core.PlanCSI(fig1R1, fig1R2, cond, 8, opts); err != nil {
		return nil, err
	}
	if plans["CSIO"], err = core.PlanCSIO(fig1R1, fig1R2, cond, opts); err != nil {
		return nil, err
	}

	t := Table{
		Title: fmt.Sprintf("Fig 1: band-join |R1.A - R2.A| <= 1, 16 tuples per relation, J=3, exact output size %d",
			localjoin.NestedLoopCount(fig1R1, fig1R2, cond)),
		Label: "scheme",
		Cols:  cols(0, "max w(r)", "w 1", "w 2", "w 3", "output"),
	}
	for _, name := range Schemes {
		res := exec.Run(fig1R1, fig1R2, cond, plans[name].Scheme, model, exec.Config{Seed: cfg.Seed})
		cells := []float64{res.MaxWork}
		for _, m := range res.Workers {
			cells = append(cells, m.Work)
		}
		slices.SortFunc(cells[1:], func(a, b float64) int { return cmp.Compare(b, a) })
		t.Rows = append(t.Rows, Row{name, append(cells, float64(res.Output))})
	}
	return []Table{t}, nil
}
