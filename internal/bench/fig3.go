package bench

import (
	"fmt"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/join"
	"ewh/internal/matrix"
	"ewh/internal/tiling"
	"ewh/internal/workload"
)

// Fig3 walks the histogram algorithm's three stages on a small skewed
// workload and returns the artifacts Fig. 3 illustrates: the sample matrix
// MS (size, max cell weight σ), the coarsened matrix MC (size, max cell
// weight) and the equi-weight histogram MH (its regions), each beside the
// bound §III-D holds it to — σ ≤ wOPT/2 (Lemma 3.1) and the regions against
// wOPT, the no-replication lower bound w(M)/J.
//
// σ ≤ wOPT/2 fails at the default J = 8: no cell splits a key, and the
// heaviest Zipf key's self-matches alone (the "heavy key" row: 184 × 170 on
// key 0 at seed 42, weight 6610) outweigh wOPT/2 = 4961, whatever ns is.
func Fig3(cfg Config) ([]Table, error) {
	cfg.Defaults()
	model := cost.DefaultBand
	n := 4000 * cfg.Scale
	r1 := workload.Zipfian(n, int64(n), 0.8, cfg.Seed)
	r2 := workload.Zipfian(n, int64(n), 0.8, cfg.Seed+1)
	cond := join.NewBand(3)
	j := cfg.J

	sm, err := core.BuildSampleMatrix(r1, r2, cond, core.Options{J: j, Model: model, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	wOPT := (model.Wi*2*float64(n) + model.Wo*float64(sm.M)) / float64(j)

	rowCuts, colCuts := tiling.CoarsenGrid(sm, 2*j, model, tiling.CoarsenOptions{})
	d := matrix.Coarsen(sm, rowCuts, colCuts)

	regions, err := tiling.Regionalize(d, model, j, tiling.RegionalizeOptions{})
	if err != nil {
		return nil, err
	}
	stages := Table{
		Title: fmt.Sprintf("Fig 3: histogram algorithm stages (n=%d, J=%d, Zipf 0.8 band-3 join, m=%d)", n, j, sm.M),
		Label: "stage",
		Cols:  cols(0, "rows", "cols", "regions", "max weight", "bound"),
		Rows: []Row{
			{"1 sampling: MS, σ vs wOPT/2", []float64{float64(sm.Rows), float64(sm.Cols), nan, sm.MaxCellWeight(model), wOPT / 2}},
			{"heavy key: self-matches vs wOPT/2", []float64{1, 1, nan, heavyKeyWeight(r1, r2, model), wOPT / 2}},
			{"2 coarsening: MC", []float64{float64(d.Rows), float64(d.Cols), nan, d.MaxCandCellWeight(model), nan}},
			{"3 regionalization: MH vs wOPT", []float64{nan, nan, float64(len(regions)), tiling.MaxWeight(regions), wOPT}},
		},
	}
	mh := Table{
		Title: "Fig 3: MH regions (coarsened cells)",
		Label: "region",
		Cols:  cols(0, "row from", "row to", "col from", "col to", "input", "output", "weight"),
	}
	for i, reg := range regions {
		mh.Rows = append(mh.Rows, Row{fmt.Sprintf("region %d", i), []float64{
			float64(reg.Rect.R0), float64(reg.Rect.R1), float64(reg.Rect.C0), float64(reg.Rect.C1),
			reg.Input, reg.Output, reg.Weight}})
	}
	return []Table{stages, mh}, nil
}

// heavyKeyWeight is the weight of the heaviest single key's self-matches,
// model.Weight(c1+c2, c1·c2) over the key maximizing c1·c2: the least
// weight of a sample-matrix cell holding that key, since no histogram
// boundary splits a key.
func heavyKeyWeight(r1, r2 []join.Key, model cost.Model) float64 {
	c1, c2 := map[join.Key]float64{}, map[join.Key]float64{}
	for _, k := range r1 {
		c1[k]++
	}
	for _, k := range r2 {
		c2[k]++
	}
	var best, in float64
	for k, a := range c1 {
		if a*c2[k] > best {
			best, in = a*c2[k], a+c2[k]
		}
	}
	return model.Weight(in, best)
}
