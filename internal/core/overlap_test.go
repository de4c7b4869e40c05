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
// the order its draws are defined — R1's input sample, Stream-Sample's
// positions and shard splits, AdaptNS's R1 re-sample — each through the plain
// public calls, and with R2's histogram taken from a sort of all of R2 rather
// than read off its multiset. It is the oracle the stage must match, in its
// product and in where it leaves the generator.
func serialSampleStage(l left, r2 []join.Key, cond join.Condition, opts Options, rng *stats.RNG) (*sampled, error) {
	n1, n2 := l.count, len(r2)
	n := max(n1, n2)
	ns := opts.NS
	if ns <= 0 {
		ns = int(math.Ceil(math.Sqrt(2 * float64(n) * float64(opts.J))))
	}
	ns = min(ns, n)
	sorted := slices.Sorted(slices.Values(r2))
	histograms := func(ns int) (walk []join.Key, rh, ch *histogram.EquiDepth, err error) {
		walk = l.keys
		if l.bounds != nil {
			rh, err = histogram.FromBounds(l.bounds)
		} else {
			walk = sample.FixedSize(l.keys, inputSampleSize(ns, n), rng)
			rh, err = histogram.FromSample(walk, ns)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		ch, err = histogram.FromSorted(sorted, ns)
		return walk, rh, ch, err
	}
	walk, rh, ch, err := histograms(ns)
	if err != nil {
		return nil, err
	}
	so := int(opts.OutputSampleFactor * float64(countCandidates(rh, ch, cond)))
	so = min(max(so, 1063), maxOutputSample)
	out := sample.StreamSampleWith(walk, sample.BuildMultiset(r2), cond, so, opts.J, rng)
	m := out.M
	if len(walk) < n1 {
		m = int64(math.Round(float64(out.M) * float64(n1) / float64(len(walk))))
	}
	if opts.AdaptNS && l.bounds == nil && m > 0 {
		nsAdj := int(math.Ceil(math.Sqrt(2 * float64(n) * float64(opts.J) / (float64(m) / float64(n)))))
		nsAdj = min(max(min(nsAdj, 4*ns), 2*opts.J), n)
		if nsAdj*4 < ns*3 || nsAdj*3 > ns*4 {
			if _, rh, ch, err = histograms(nsAdj); err != nil {
				return nil, err
			}
		}
	}
	return &sampled{rh: rh, ch: ch, pairs: out.Pairs, m: m, n1: n1, n2: n2}, nil
}

// TestSampleStageMatchesSerialDrawOrder holds the sampling stage — R1's one
// reservoir beside R2's multiset, R2's histogram read off the multiset — to
// the serial oracle: the same histograms, output sample and m, and the
// generator left where the serial order leaves it, checked through its next
// draw. Every row but the summary's samples R1 (si < n1), so m is scaled.
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
			got, err := sampleStage(c.l, r2, c.cond, c.opts, gotRNG, nil)
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
