package bench

import (
	"fmt"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/sample"
)

// Ablations returns the design-choice studies (id `ablate`):
//
//  1. nc = 2J versus nc = J — the coarsened-matrix size (§III-D argues 2J
//     lessens the grid-partitioning accuracy loss);
//  2. AdaptNS — the §A5 sample-matrix resizing once m is known;
//  3. output-sample size so — balance accuracy versus sampling effort;
//  4. Stream-Sample over R1's input sample at several sizes: its estimate of
//     m and its share of the dense segment against the exact ones.
func Ablations(cfg Config) ([]Table, error) {
	cfg.Defaults()
	var out []Table
	for _, ablate := range []func(Config) (Table, error){ablateNC, ablateAdaptNS, ablateOutputSample, ablateSampler} {
		t, err := ablate(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// runCSIOWith plans CSIO with the given option mutator and returns the
// measured max work and the plan.
func runCSIOWith(spec *JoinSpec, cfg Config, mutate func(*core.Options)) (float64, *core.Plan, error) {
	opts := core.Options{J: cfg.J, Model: spec.Model, Seed: cfg.Seed + 1}
	mutate(&opts)
	plan, err := core.PlanCSIO(spec.R1, spec.R2, spec.Cond, opts)
	if err != nil {
		return 0, nil, err
	}
	res := exec.Run(spec.R1, spec.R2, spec.Cond, plan.Scheme, spec.Model, exec.Config{Seed: cfg.Seed + 2})
	return res.MaxWork, plan, nil
}

func ablateNC(cfg Config) (Table, error) {
	t := Table{
		Title: fmt.Sprintf("Ablation 1: coarsened matrix size nc (J=%d)", cfg.J),
		Label: "join",
		Cols:  append(cols(0, "nc=J maxwork", "nc=2J maxwork"), Col{"2J gain %", 1}),
	}
	for _, id := range []string{"BCB-3", "BEOCD"} {
		spec, err := MakeJoin(id, cfg)
		if err != nil {
			return t, err
		}
		atJ, _, err := runCSIOWith(spec, cfg, func(o *core.Options) { o.NC = cfg.J })
		if err != nil {
			return t, err
		}
		at2J, _, err := runCSIOWith(spec, cfg, func(o *core.Options) { o.NC = 2 * cfg.J })
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, Row{id, []float64{atJ, at2J, 100 * (atJ - at2J) / atJ}})
	}
	return t, nil
}

func ablateAdaptNS(cfg Config) (Table, error) {
	spec, err := MakeJoin("BCB-8", cfg)
	if err != nil {
		return Table{}, err
	}
	t := Table{Label: "AdaptNS", Cols: cols(0, "ns", "maxwork", "stats (ms)")}
	for i, label := range []string{"off", "on"} {
		maxWork, plan, err := runCSIOWith(spec, cfg, func(o *core.Options) { o.AdaptNS = i == 1 })
		if err != nil {
			return t, err
		}
		t.Title = fmt.Sprintf("Ablation 2: AdaptNS (§A5 sample-matrix resizing, BCB-8; ρB=%.1f shrinks MS)",
			float64(plan.M)/float64(len(spec.R1)))
		t.Rows = append(t.Rows, Row{label, []float64{float64(plan.NS), maxWork, plan.Stages.Total().Seconds() * 1e3}})
	}
	return t, nil
}

func ablateOutputSample(cfg Config) (Table, error) {
	t := Table{
		Title: "Ablation 3: output sample size so = factor·nsc (BCB-3)",
		Label: "factor",
		Cols:  []Col{{"maxwork", 0}, {"est-err %", 1}},
	}
	spec, err := MakeJoin("BCB-3", cfg)
	if err != nil {
		return t, err
	}
	for _, factor := range []float64{0.5, 1, 2, 4, 8} {
		maxWork, plan, err := runCSIOWith(spec, cfg, func(o *core.Options) { o.OutputSampleFactor = factor })
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, Row{fmt.Sprintf("%.1f", factor),
			[]float64{maxWork, 100 * (plan.EstimatedMaxWeight - maxWork) / maxWork}})
	}
	return t, nil
}

// ablateSampler runs Stream-Sample as PlanCSIO does — over a uniform input
// sample of BCB-3's R1, in draw order, against R2's exact multiset — at si/4,
// si/2 and si keys (si = core.InputSampleSize) and over all of R1. Each row
// reports m̂/m, the size estimate scaled by n1 over the sample's size against
// the exact m, and the share of the sampled pairs whose R1 key lies in the
// dense segment (below x/6) against the exact share of the output there,
// Σ d2(t1) over those keys ÷ m.
func ablateSampler(cfg Config) (Table, error) {
	spec, err := MakeJoin("BCB-3", cfg)
	if err != nil {
		return Table{}, err
	}
	n1 := len(spec.R1)
	si := core.InputSampleSize(max(n1, len(spec.R2)), cfg.J)
	t := Table{
		Title: fmt.Sprintf("Ablation 4: Stream-Sample over R1's input sample (BCB-3, si=%d of n1=%d, so=2000)", si, n1),
		Label: "R1 sample",
		Cols:  append(cols(0, "keys"), cols(4, "m-hat/m", "sampled share", "exact share")...),
	}
	head := int64(baseBCBX*cfg.Scale/6) + 1
	m2 := sample.BuildMultiset(spec.R2)
	var m, headOut int64
	for _, k := range spec.R1 {
		d2, _ := m2.D2At(spec.Cond, k)
		m += d2
		if k < head {
			headOut += d2
		}
	}
	rng := rngFor(cfg, 4)
	for _, r := range []struct {
		label string
		size  int
	}{{"si/4", si / 4}, {"si/2", si / 2}, {"si", si}, {"all of R1", n1}} {
		keys := sample.FixedSize(spec.R1, r.size, rng)
		s := sample.StreamSampleWith(keys, m2, spec.Cond, 2000, cfg.J, rng)
		inHead := 0
		for _, p := range s.Pairs {
			if p[0] < head {
				inHead++
			}
		}
		mHat := float64(s.M) * float64(n1) / float64(len(keys))
		t.Rows = append(t.Rows, Row{r.label, []float64{float64(len(keys)), mHat / float64(m),
			float64(inHead) / float64(len(s.Pairs)), float64(headOut) / float64(m)}})
	}
	return t, nil
}
