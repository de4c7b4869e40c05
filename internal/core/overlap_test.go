package core

import (
	"math"
	"slices"
	"testing"

	"ewh/internal/histogram"
	"ewh/internal/join"
	"ewh/internal/sample"
	"ewh/internal/stats"
)

// serialSampleStage is sampleStage with its stages run one after another in
// the order its draws are defined — left input sample, right input sample,
// multiset, Stream-Sample, AdaptNS's re-samples — each through the plain
// public calls benchmark/layers.go replays. It is the oracle the overlapped
// stage must match, in its product and in where it leaves the generator.
func serialSampleStage(l left, r2 []join.Key, cond join.Condition, opts Options, rng *stats.RNG) (*sampled, error) {
	n1, n2 := l.count, len(r2)
	n := max(n1, n2)
	ns := opts.NS
	if ns <= 0 {
		ns = int(math.Ceil(math.Sqrt(2 * float64(n) * float64(opts.J))))
	}
	ns = min(ns, n)
	histograms := func(ns int) (rh, ch *histogram.EquiDepth, err error) {
		si := inputSampleSize(ns, n)
		if l.bounds != nil {
			rh, err = histogram.FromBounds(l.bounds)
		} else {
			rh, err = histogram.FromSample(sample.FixedSize(l.keys, si, rng), ns)
		}
		if err != nil {
			return nil, nil, err
		}
		ch, err = histogram.FromSample(sample.FixedSize(r2, si, rng), ns)
		return rh, ch, err
	}
	rh, ch, err := histograms(ns)
	if err != nil {
		return nil, err
	}
	so := int(opts.OutputSampleFactor * float64(countCandidates(rh, ch, cond)))
	so = min(max(so, 1063), maxOutputSample)
	out := sample.StreamSampleWith(l.keys, sample.BuildMultiset(r2), cond, so, opts.J, rng)
	m := out.M
	if len(l.keys) < n1 {
		m = int64(math.Round(float64(out.M) * float64(n1) / float64(len(l.keys))))
	}
	if opts.AdaptNS && l.bounds == nil && m > 0 {
		nsAdj := int(math.Ceil(math.Sqrt(2 * float64(n) * float64(opts.J) / (float64(m) / float64(n)))))
		nsAdj = min(max(min(nsAdj, 4*ns), 2*opts.J), n)
		if nsAdj*4 < ns*3 || nsAdj*3 > ns*4 {
			if rh, ch, err = histograms(nsAdj); err != nil {
				return nil, err
			}
		}
	}
	return &sampled{rh: rh, ch: ch, pairs: out.Pairs, m: m, n1: n1, n2: n2}, nil
}

// TestSampleStageMatchesSerialDrawOrder holds the overlapped sampling stage —
// the right reservoir beside the left one on a skipped generator copy, the
// multiset beside both — to the serial oracle: the same histograms, output
// sample and m, and the generator left where the serial order leaves it,
// checked through its next draw.
func TestSampleStageMatchesSerialDrawOrder(t *testing.T) {
	r1, r2 := randKeys(6000, 3000, 90), randKeys(5000, 3000, 91)
	wide := join.NewBand(40) // m/n ≈ 130: AdaptNS shrinks MS
	sum := sample.Summarize(r1, 700, 32, stats.NewRNG(92))
	for _, c := range []struct {
		name   string
		l      left
		cond   join.Condition
		opts   Options
		shrunk bool // AdaptNS must have rebuilt the histograms
	}{
		{"sampled R1", left{keys: r1, count: len(r1)}, join.NewBand(2), Options{J: 4, NS: 20, Seed: 3}, false},
		{"sampled R1, default ns", left{keys: r1, count: len(r1)}, join.Equi{}, Options{J: 1, Seed: 4}, false},
		{"summary bounds", left{keys: sum.Keys, count: int(sum.Count), bounds: sum.Bounds}, join.NewBand(2), Options{J: 4, NS: 20, Seed: 5}, false},
		{"AdaptNS", left{keys: r1, count: len(r1)}, wide, Options{J: 4, NS: 64, Seed: 6, AdaptNS: true}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.opts.defaults(); err != nil {
				t.Fatal(err)
			}
			gotRNG, wantRNG := stats.NewRNG(c.opts.Seed), stats.NewRNG(c.opts.Seed)
			got, err := sampleStage(c.l, r2, c.cond, c.opts, gotRNG)
			if err != nil {
				t.Fatal(err)
			}
			want, err := serialSampleStage(c.l, r2, c.cond, c.opts, wantRNG)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := gotRNG.Uint64(), wantRNG.Uint64(); g != w {
				t.Fatalf("next draw %#x, want %#x: the stage left the generator elsewhere than the serial order", g, w)
			}
			if !slices.Equal(got.rh.Boundaries(), want.rh.Boundaries()) || !slices.Equal(got.ch.Boundaries(), want.ch.Boundaries()) {
				t.Fatal("histogram boundaries differ from the serial order's")
			}
			if got.m != want.m || !slices.Equal(got.pairs, want.pairs) {
				t.Fatalf("m = %d with %d pairs, want %d with %d (or the pairs differ)", got.m, len(got.pairs), want.m, len(want.pairs))
			}
			if shrunk := got.rh.Buckets() < c.opts.NS; c.shrunk && !shrunk {
				t.Fatalf("AdaptNS kept %d row buckets of %d: the re-sample was not exercised", got.rh.Buckets(), c.opts.NS)
			}
		})
	}
}
