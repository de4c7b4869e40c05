package bench

import (
	"fmt"
	"io"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/sample"
)

// Ablations prints the design-choice studies (id `ablate`):
//
//  1. nc = 2J versus nc = J — the coarsened-matrix size (§III-D argues 2J
//     lessens the grid-partitioning accuracy loss);
//  2. AdaptNS — the §A5 sample-matrix resizing once m is known;
//  3. output-sample size so — balance accuracy versus sampling effort;
//  4. exact (two-pass) versus reservoir (one-pass) Stream-Sample.
func Ablations(w io.Writer, cfg Config) error {
	cfg.Defaults()
	if err := ablateNC(w, cfg); err != nil {
		return err
	}
	if err := ablateAdaptNS(w, cfg); err != nil {
		return err
	}
	if err := ablateOutputSample(w, cfg); err != nil {
		return err
	}
	return ablateSamplerVariant(w, cfg)
}

// runCSIOWith plans CSIO with the given option mutator and returns the
// measured max work and the plan.
func runCSIOWith(spec *JoinSpec, cfg Config, mutate func(*core.Options)) (float64, *core.Plan, error) {
	opts := core.Options{J: cfg.J, Model: spec.Model, Seed: cfg.Seed + 1}
	if mutate != nil {
		mutate(&opts)
	}
	plan, err := core.PlanCSIO(spec.R1, spec.R2, spec.Cond, opts)
	if err != nil {
		return 0, nil, err
	}
	res := exec.Run(spec.R1, spec.R2, spec.Cond, plan.Scheme, spec.Model, exec.Config{Seed: cfg.Seed + 2})
	return res.MaxWork, plan, nil
}

func ablateNC(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "Ablation 1: coarsened matrix size nc (J=%d)\n", cfg.J)
	fmt.Fprintf(w, "%-8s | %14s %14s %10s\n", "join", "nc=J maxwork", "nc=2J maxwork", "2J gain")
	for _, id := range []string{"BCB-3", "BEOCD"} {
		spec, err := MakeJoin(id, cfg)
		if err != nil {
			return err
		}
		atJ, _, err := runCSIOWith(spec, cfg, func(o *core.Options) { o.NC = cfg.J })
		if err != nil {
			return err
		}
		at2J, _, err := runCSIOWith(spec, cfg, func(o *core.Options) { o.NC = 2 * cfg.J })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s | %14.0f %14.0f %9.1f%%\n", id, atJ, at2J, 100*(atJ-at2J)/atJ)
	}
	return nil
}

func ablateAdaptNS(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Ablation 2: AdaptNS (§A5 sample-matrix resizing, BCB-8)")
	spec, err := MakeJoin("BCB-8", cfg)
	if err != nil {
		return err
	}
	off, planOff, err := runCSIOWith(spec, cfg, nil)
	if err != nil {
		return err
	}
	on, planOn, err := runCSIOWith(spec, cfg, func(o *core.Options) { o.AdaptNS = true })
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  off: ns=%d maxwork=%.0f stats=%v\n", planOff.NS, off, planOff.StatsDuration.Round(1e6))
	fmt.Fprintf(w, "  on:  ns=%d maxwork=%.0f stats=%v (ρB=%.1f shrinks MS)\n",
		planOn.NS, on, planOn.StatsDuration.Round(1e6),
		float64(planOn.M)/float64(len(spec.R1)))
	return nil
}

func ablateOutputSample(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Ablation 3: output sample size so = factor·nsc (BCB-3)")
	fmt.Fprintf(w, "%-8s | %12s %12s\n", "factor", "maxwork", "est-err")
	spec, err := MakeJoin("BCB-3", cfg)
	if err != nil {
		return err
	}
	for _, factor := range []float64{0.5, 1, 2, 4, 8} {
		maxWork, plan, err := runCSIOWith(spec, cfg, func(o *core.Options) { o.OutputSampleFactor = factor })
		if err != nil {
			return err
		}
		errPct := 100 * (plan.EstimatedMaxWeight - maxWork) / maxWork
		fmt.Fprintf(w, "%-8.1f | %12.0f %11.1f%%\n", factor, maxWork, errPct)
	}
	return nil
}

func ablateSamplerVariant(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Ablation 4: Stream-Sample variants (BCB-3, so=2000)")
	spec, err := MakeJoin("BCB-3", cfg)
	if err != nil {
		return err
	}
	rng := rngFor(cfg, 4)
	exact := sample.StreamSample(spec.R1, spec.R2, spec.Cond, 2000, cfg.J, rng.Split())
	reservoir := sample.StreamSampleReservoir(spec.R1, spec.R2, spec.Cond, 2000, cfg.J, rng.Split())
	headShare := func(pairs [][2]int64) float64 {
		// The X dataset's dense segment lives below x/6; measure its share.
		head := 0
		for _, p := range pairs {
			if p[0] < int64(baseBCBX*cfg.Scale/6)+1 {
				head++
			}
		}
		return float64(head) / float64(len(pairs))
	}
	fmt.Fprintf(w, "  exact two-pass: m=%d dense-segment share=%.3f\n", exact.M, headShare(exact.Pairs))
	fmt.Fprintf(w, "  reservoir one-pass: m=%d dense-segment share=%.3f\n", reservoir.M, headShare(reservoir.Pairs))
	return nil
}
