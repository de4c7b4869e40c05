package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/keysort"
	"ewh/internal/localjoin"
	"ewh/internal/matrix"
	"ewh/internal/partition"
	"ewh/internal/sample"
	"ewh/internal/stats"
	"ewh/internal/tiling"
)

// The probes in this file call the layers' public functions directly, on the
// inputs the workload's operations use, to split what the seams cannot: the
// planner's stages inside core.PlanCSIO and the route → scatter → sort/build →
// join steps inside one exec.Run. They run after the timed loop of a traced
// run and are recorded as spans of their own (Op -1).

// probeReps is how often each probe repeats; its metrics are medians.
const probeReps = 5

// prober times direct calls and keeps the samples per name.
type prober struct {
	tr      *tracer
	samples map[string][]time.Duration
}

func newProber(tr *tracer) *prober { return &prober{tr: tr, samples: map[string][]time.Duration{}} }

func (p *prober) time(name string, f func()) {
	id := p.tr.begin(name, -1, -1)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	p.tr.end(id)
	p.samples[name] = append(p.samples[name], d)
}

func (p *prober) ms(name string) float64 { return ms(median(p.samples[name])) }

// probePlanner decomposes core.PlanCSIO(r1, r2, cond, opts) by running its
// stages one by one, as core does: input samples and equi-depth histograms,
// the R2 multiset and the Stream-Sample output sample, the sample matrix,
// grid coarsening and regionalization. core.unattributed_share is what the
// stages leave of the whole call.
func probePlanner(tr *tracer, r1, r2 []join.Key, cond join.Condition, opts core.Options, m map[string]float64) error {
	p := newProber(tr)
	n1, n2 := len(r1), len(r2)
	n := max(n1, n2)
	ns := min(int(math.Ceil(math.Sqrt(2*float64(n)*float64(opts.J)))), n)
	si := max(int(4*float64(ns)*math.Log2(float64(n)+2)), ns)
	nc := 2 * opts.J

	// The output sample size is the planner's own choice; read it off the
	// sample matrix it builds.
	sm0, err := core.BuildSampleMatrix(r1, r2, cond, opts)
	if err != nil {
		return fmt.Errorf("planner probe: %w", err)
	}
	so := sm0.SampleSize

	var states, candidates int
	for range probeReps {
		var plan *core.Plan
		p.time("core.PlanCSIO", func() { plan, err = core.PlanCSIO(r1, r2, cond, opts) })
		if err != nil {
			return fmt.Errorf("planner probe: %w", err)
		}
		if plan.Fallback {
			return fmt.Errorf("planner probe: CSIO fell back to CI; the workload does not exercise the tiling layers")
		}

		rng := stats.NewRNG(opts.Seed)
		var rh, ch *histogram.EquiDepth
		var herr error
		p.time("histogram.FromSample", func() {
			s1 := sample.FixedSize(r1, si, rng)
			s2 := sample.FixedSize(r2, si, rng)
			if rh, herr = histogram.FromSample(s1, ns); herr == nil {
				ch, herr = histogram.FromSample(s2, ns)
			}
		})
		if herr != nil {
			return fmt.Errorf("planner probe: %w", herr)
		}
		var m2 *sample.KeyMultiset
		p.time("sample.BuildMultiset", func() { m2 = sample.BuildMultiset(r2) })
		var out *sample.OutputSample
		p.time("sample.StreamSample", func() { out = sample.StreamSampleWith(r1, m2, cond, so, opts.J, rng) })
		var sm *matrix.Sample
		p.time("matrix.BuildSample", func() { sm, err = matrix.BuildSample(rh, ch, cond, out.Pairs, out.M, n1, n2, 0) })
		if err != nil {
			return fmt.Errorf("planner probe: %w", err)
		}
		var rowCuts, colCuts []int
		p.time("tiling.CoarsenGrid", func() { rowCuts, colCuts = tiling.CoarsenGrid(sm, nc, opts.Model, tiling.CoarsenOptions{}) })
		var d *matrix.Dense
		p.time("matrix.Coarsen", func() { d = matrix.Coarsen(sm, rowCuts, colCuts) })
		var regions []tiling.Region
		p.time("tiling.Regionalize", func() { regions, err = tiling.Regionalize(d, opts.Model, opts.J, tiling.RegionalizeOptions{}) })
		if err != nil {
			return fmt.Errorf("planner probe: %w", err)
		}

		solver := tiling.NewMonotonicBSP(d, opts.Model)
		solver.MinRegions(tiling.MaxWeight(regions), opts.J)
		states = solver.Stats().States
		candidates = 0
		for i := range sm.CandLo {
			if sm.CandHi[i] >= sm.CandLo[i] {
				candidates += sm.CandHi[i] - sm.CandLo[i] + 1
			}
		}
	}

	m["core.plan_ms"] = p.ms("core.PlanCSIO")
	m["sample.multiset_ms"] = p.ms("sample.BuildMultiset")
	m["sample.stream_sample_ms"] = p.ms("sample.StreamSample")
	m["sample.output_sample_size"] = float64(so)
	m["histogram.build_ms"] = p.ms("histogram.FromSample")
	m["matrix.build_ms"] = p.ms("matrix.BuildSample") + p.ms("matrix.Coarsen")
	m["matrix.candidate_cells"] = float64(candidates)
	m["tiling.coarsen_ms"] = p.ms("tiling.CoarsenGrid")
	m["tiling.regionalize_ms"] = p.ms("tiling.Regionalize")
	m["tiling.states"] = float64(states)
	stages := m["sample.multiset_ms"] + m["sample.stream_sample_ms"] + m["histogram.build_ms"] +
		m["matrix.build_ms"] + m["tiling.coarsen_ms"] + m["tiling.regionalize_ms"]
	if m["core.plan_ms"] > 0 {
		m["core.unattributed_share"] = 1 - stages/m["core.plan_ms"]
	}
	return nil
}

// probeJoin decomposes one exec.Run of r1 ⋈ r2 under scheme: routing alone,
// the scatter (which routes again as part of its work), then per worker block
// the sort and the local join of the engine the condition resolves to. The
// blocks' counts must add up to want.
func probeJoin(tr *tracer, r1, r2 []join.Key, cond join.Condition, scheme partition.Scheme,
	cfg exec.Config, want int64, m map[string]float64) error {

	p := newProber(tr)
	j := scheme.Workers()
	input := float64(len(r1) + len(r2))
	hash := cfg.Engine.ForCond(cond) == exec.EngineHash
	var sortNS, sortKeys float64
	var joinSum, joinMax, buildSum, probeSum []time.Duration
	for range probeReps {
		var b partition.RouteBatch
		p.time("partition.RouteBatch", func() {
			rng := stats.NewRNG(cfg.Seed)
			b.Reset(j, len(r1))
			partition.RouteBatchR1(scheme, r1, rng, &b)
			b.Reset(j, len(r2))
			partition.RouteBatchR2(scheme, r2, rng, &b)
		})

		var ks1, ks2 *exec.KeyShuffle
		p.time("exec.ShufflePair", func() { ks1, ks2 = exec.ShufflePair(r1, r2, scheme, cfg) })
		m["partition.replication"] = float64(ks1.Total()+ks2.Total()) / input

		var total int64
		var sum, slowest, build, probe time.Duration
		for w := range j {
			b1, b2 := ks1.Worker(w), ks2.Worker(w)
			if hash {
				var hb *localjoin.Build
				t0 := time.Now()
				hb = localjoin.NewBuild()
				hb.Insert(b1)
				hb.Seal()
				t1 := time.Now()
				total += hb.ProbeCount(b2)
				build += t1.Sub(t0)
				probe += time.Since(t1)
				continue
			}
			c1, c2 := slices.Clone(b1), slices.Clone(b2)
			t0 := time.Now()
			keysort.Sort(c1)
			keysort.Sort(c2)
			sortNS += float64(time.Since(t0))
			sortKeys += float64(len(c1) + len(c2))
			t0 = time.Now()
			total += exec.CountOwned(cfg.Engine, b1, b2, cond) // sorts b1 and b2 in place
			d := time.Since(t0)
			sum += d
			slowest = max(slowest, d)
		}
		p.time("exec.KeyShuffle.Release", func() { ks1.Release(); ks2.Release() })
		if total != want {
			return fmt.Errorf("join probe: worker blocks count %d, oracle %d", total, want)
		}
		joinSum, joinMax = append(joinSum, sum), append(joinMax, slowest)
		buildSum, probeSum = append(buildSum, build), append(probeSum, probe)
	}
	m["partition.route_ns_per_tuple"] = p.ms("partition.RouteBatch") * 1e6 / input
	m["exec.shuffle_ms"] = p.ms("exec.ShufflePair") + p.ms("exec.KeyShuffle.Release")
	if hash {
		m["localjoin.hash_build_ms"] = ms(median(buildSum))
		m["localjoin.hash_probe_ms"] = ms(median(probeSum))
	} else {
		m["keysort.sort_ns_per_key"] = sortNS / sortKeys
		m["localjoin.merge_sum_ms"] = ms(median(joinSum))
		m["localjoin.merge_max_ms"] = ms(median(joinMax))
	}
	return nil
}

// probeWire runs the identical job alternately on the in-process runtime and
// over the session, so that both see the same interference from outside the
// process, and returns the median RunJob of each: remote − local is what the
// wire costs (or, where the session's chunked scatter overlaps more of the
// work than the in-process flat scatter can, saves).
func probeWire(tr *tracer, sess exec.Runtime, r1, r2 []join.Key, cond join.Condition, scheme partition.Scheme,
	cfg exec.Config, want int64) (local, remote time.Duration, err error) {

	rts := []*tracedRuntime{
		{inner: exec.Local{}, name: "probe:exec.Local.RunJob", tr: tr, op: -1, parent: -1},
		{inner: sess, name: "probe:netexec.Session.RunJob", tr: tr, op: -1, parent: -1},
	}
	for range 2 * probeReps {
		for _, rt := range rts {
			res, err := exec.RunOver(rt, r1, r2, cond, scheme, model, cfg)
			if err := checked(outputOf(res), want, err); err != nil {
				return 0, 0, fmt.Errorf("wire probe (%s): %w", rt.name, err)
			}
		}
	}
	return median(tr.durations(rts[0].name)), median(tr.durations(rts[1].name)), nil
}
