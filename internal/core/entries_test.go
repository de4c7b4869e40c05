package core

import (
	"strings"
	"testing"

	"ewh/internal/join"
	"ewh/internal/sample"
	"ewh/internal/stats"
)

// csioEntries are the two ways into the one CSIO pipeline that produce a
// plan: from the left relation itself, and from a summary of it. The summary
// column summarizes r1 with a cap that covers it unless the row says
// otherwise, so both columns know the same m.
var csioEntries = []struct {
	name string
	plan func(r1 []join.Key, cap int, r2 []join.Key, cond join.Condition, opts Options) (*Plan, error)
}{
	{"PlanCSIO", func(r1 []join.Key, _ int, r2 []join.Key, cond join.Condition, opts Options) (*Plan, error) {
		return PlanCSIO(r1, r2, cond, opts)
	}},
	{"PlanCSIOFromSummary", func(r1 []join.Key, cap int, r2 []join.Key, cond join.Condition, opts Options) (*Plan, error) {
		return PlanCSIOFromSummary(sample.Summarize(r1, cap, 32, stats.NewRNG(77)), r2, cond, opts)
	}},
}

// allEqual builds a join whose keys are all one value, n1 = ratio and
// n2 = 1000: its output size is exactly ratio · n with n = max(n1, n2).
func allEqual(ratio int) (r1, r2 []join.Key) {
	for i := 0; i < 1000; i++ {
		if i < ratio {
			r1 = append(r1, 7)
		}
		r2 = append(r2, 7)
	}
	return r1, r2
}

// TestCSIOEntriesBehaveAlike is the behaviour table of the CSIO pipeline with
// the entry point as a column: every row must hold however the left relation
// is described.
func TestCSIOEntriesBehaveAlike(t *testing.T) {
	dense1, dense2 := randKeys(2000, 8, 10), randKeys(2000, 8, 11) // nearly Cartesian under a band
	sparse1, sparse2 := randKeys(3000, 1500, 60), randKeys(3000, 1500, 61)
	below1, below2 := allEqual(199)
	above1, above2 := allEqual(201)
	rows := []struct {
		name    string
		r1, r2  []join.Key
		cap     int // summary sample cap; 0 = len(r1)
		cond    join.Condition
		opts    Options
		wantErr string
		check   func(t *testing.T, p *Plan)
	}{
		{name: "empty left", r1: nil, r2: []join.Key{1, 2}, cond: join.Equi{}, opts: Options{J: 2}, wantErr: "empty"},
		{name: "empty right", r1: []join.Key{1, 2, 3}, r2: nil, cond: join.Equi{}, opts: Options{J: 2}, wantErr: "empty"},
		{name: "fallback by ratio", r1: dense1, r2: dense2, cond: join.NewBand(2),
			opts: Options{J: 4, Model: model, Seed: 12},
			check: func(t *testing.T, p *Plan) {
				if !p.Fallback || p.Scheme.Name() != "CI" || p.M <= 200*2000 {
					t.Errorf("fallback=%v scheme=%s m=%d", p.Fallback, p.Scheme.Name(), p.M)
				}
			}},
		{name: "DisableFallback", r1: dense1, r2: dense2, cond: join.NewBand(2),
			opts:  Options{J: 4, Model: model, Seed: 12, DisableFallback: true},
			check: wantCSIO},
		{name: "all equal, m = 199 n", r1: below1, r2: below2, cond: join.Equi{},
			opts: Options{J: 4, Model: model, Seed: 3},
			check: func(t *testing.T, p *Plan) {
				wantCSIO(t, p)
				if p.M != 199*1000 {
					t.Errorf("m = %d, want 199000", p.M)
				}
			}},
		{name: "all equal, m = 201 n", r1: above1, r2: above2, cond: join.Equi{},
			opts: Options{J: 4, Model: model, Seed: 3},
			check: func(t *testing.T, p *Plan) {
				if !p.Fallback || p.Scheme.Name() != "CI" || p.M != 201*1000 {
					t.Errorf("fallback=%v scheme=%s m=%d, want a fallback at m = 201000", p.Fallback, p.Scheme.Name(), p.M)
				}
			}},
		{name: "exact m when the keys are the population", r1: sparse1, r2: sparse2, cond: join.Equi{},
			opts: Options{J: 4, Seed: 9},
			check: func(t *testing.T, p *Plan) {
				if want := sample.StreamSample(sparse1, sparse2, join.Equi{}, 0, 2, nil).M; p.M != want {
					t.Errorf("m = %d, exact m = %d", p.M, want)
				}
			}},
		{name: "m scales with the sampling fraction", r1: sparse1, r2: sparse2, cap: 500, cond: join.NewBand(2),
			opts: Options{J: 4, Seed: 9},
			check: func(t *testing.T, p *Plan) {
				want := sample.StreamSample(sparse1, sparse2, join.NewBand(2), 0, 2, nil).M
				if p.M < want*2/3 || p.M > want*3/2 {
					t.Errorf("m = %d, exact m = %d", p.M, want)
				}
			}},
		{name: "ns clamps on tiny inputs", r1: []join.Key{1, 2, 3, 4, 5}, r2: []join.Key{2, 3, 4, 5, 6, 7, 8}, cond: join.NewBand(1),
			opts: Options{J: 8, Model: model, Seed: 1},
			check: func(t *testing.T, p *Plan) {
				wantCSIO(t, p)
				if p.NS < 1 || p.NS > 7 || p.M != 12 {
					t.Errorf("NS = %d, m = %d; want NS in [1, 7] and m = 12", p.NS, p.M)
				}
			}},
	}
	for _, e := range csioEntries {
		for _, row := range rows {
			t.Run(e.name+"/"+row.name, func(t *testing.T) {
				cap := row.cap
				if cap == 0 {
					cap = len(row.r1)
				}
				p, err := e.plan(row.r1, cap, row.r2, row.cond, row.opts)
				if row.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), row.wantErr) {
						t.Fatalf("error %v, want one containing %q", err, row.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				row.check(t, p)
			})
		}
	}
}

// TestOutputSampleFloor: the output sample never shrinks below the Kolmogorov
// floor (§A1), however few candidate cells a sparse join leaves and however
// the left relation is described.
func TestOutputSampleFloor(t *testing.T) {
	r1, r2 := randKeys(3000, 1500, 60), randKeys(3000, 1500, 61)
	sum := sample.Summarize(r1, 256, 32, stats.NewRNG(77))
	opts := Options{J: 2, NS: 4, Seed: 5}
	if err := opts.defaults(); err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]left{
		"relation": {keys: r1, count: len(r1)},
		"summary":  {keys: sum.Keys, count: int(sum.Count), bounds: sum.Bounds},
	} {
		st, err := sampleStage(l, r2, join.Equi{}, opts, stats.NewRNG(opts.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(st.pairs) != 1063 {
			t.Errorf("%s: so = %d, want the floor 1063", name, len(st.pairs))
		}
	}
}

func wantCSIO(t *testing.T, p *Plan) {
	t.Helper()
	if p.Fallback || p.Scheme.Name() != "CSIO" || len(p.Regions) == 0 {
		t.Errorf("fallback=%v scheme=%s regions=%d, want a CSIO plan", p.Fallback, p.Scheme.Name(), len(p.Regions))
	}
}

// TestPlanFromSummaryRefusesAnOverflowingEstimate: a count near MaxInt64
// passes Summary.Validate and reaches the coordinator's planner in a worker's
// STATS frame; the scaled m must be refused by name, not wrapped negative.
func TestPlanFromSummaryRefusesAnOverflowingEstimate(t *testing.T) {
	hostile := &stats.Summary{Count: 1 << 62, Cap: 4, Keys: []join.Key{5}, Bounds: []join.Key{0, 10}}
	_, err := PlanCSIOFromSummary(hostile, []join.Key{5, 5, 5, 6}, join.Equi{}, Options{J: 2})
	if err == nil || !strings.Contains(err.Error(), "does not fit int64") ||
		!strings.Contains(err.Error(), "4611686018427387904") {
		t.Fatalf("error %v, want the estimate refused with the summary's count named", err)
	}
}
