package streamjoin

import (
	"errors"
	"testing"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/keysort"
	"ewh/internal/localjoin"
	"ewh/internal/stats"
)

func uniformKeys(rng *stats.RNG, n int, lo, span int64) []join.Key {
	ks := make([]join.Key, n)
	for i := range ks {
		ks[i] = join.Key(lo + rng.Int64n(span))
	}
	return ks
}

// refCount is the one-shot reference: sort the concatenated windows, sort
// the base, count with the shared kernel.
func refCount(windows [][]join.Key, base []join.Key, cond join.Condition) int64 {
	var all []join.Key
	for _, w := range windows {
		all = append(all, w...)
	}
	keysort.Sort(all)
	b := append([]join.Key(nil), base...)
	keysort.Sort(b)
	return localjoin.CountSorted(all, b, cond)
}

// flipWorkload builds the skew-flip stream: a few windows uniform over the
// wide keyspace, then the distribution collapses into a narrow range. The
// initial plan spreads the wide range over the fleet; after the flip, every
// tuple lands in the few regions covering the narrow range.
func flipWorkload(t *testing.T) (base []join.Key, windows [][]join.Key) {
	t.Helper()
	rng := stats.NewRNG(41)
	base = uniformKeys(rng, 40000, 0, 1_000_000)
	for i := 0; i < 3; i++ {
		windows = append(windows, uniformKeys(rng, 3000, 0, 1_000_000))
	}
	// The flip phase must be sustained: a replan pays a base re-ship up
	// front and earns it back window by window.
	for i := 0; i < 16; i++ {
		windows = append(windows, uniformKeys(rng, 3000, 0, 20_000))
	}
	return base, windows
}

func flipConfig(freeze bool) Config {
	return Config{
		Opts:       core.Options{J: 4, Seed: 7},
		Exec:       exec.Config{Seed: 11},
		Stats:      exec.StatsSpec{Seed: 9},
		FreezePlan: freeze,
	}
}

// TestRunDetectsFlipAndReplans is the crosscheck on the reference runtime: a
// mid-stream distribution flip fires at least one replan, the total matches
// the one-shot reference join bit-for-bit in both arms, and the replanning
// arm's modeled makespan beats the frozen plan's.
func TestRunDetectsFlipAndReplans(t *testing.T) {
	base, windows := flipWorkload(t)
	cond := join.NewBand(50)
	want := refCount(windows, base, cond)
	if want == 0 {
		t.Fatal("degenerate workload: reference count is 0")
	}

	rt := exec.LocalStreamRuntime{Workers: 4}
	live, err := Run(rt, base, windows, cond, flipConfig(false))
	if err != nil {
		t.Fatalf("replanning run: %v", err)
	}
	frozen, err := Run(rt, base, windows, cond, flipConfig(true))
	if err != nil {
		t.Fatalf("frozen run: %v", err)
	}

	if live.Replans < 1 {
		t.Fatalf("distribution flip fired no replan; drifts: %v", drifts(live))
	}
	if frozen.Replans != 0 {
		t.Fatalf("frozen plan replanned %d times", frozen.Replans)
	}
	if live.Total != want || frozen.Total != want {
		t.Fatalf("totals diverge: live %d frozen %d reference %d", live.Total, frozen.Total, want)
	}
	if live.Makespan >= frozen.Makespan {
		t.Fatalf("replanning did not pay: modeled makespan %.0f (replan) vs %.0f (frozen)",
			live.Makespan, frozen.Makespan)
	}
	if len(live.Windows) != len(windows) || len(frozen.Windows) != len(windows) {
		t.Fatalf("window stats: %d and %d for %d windows", len(live.Windows), len(frozen.Windows), len(windows))
	}
	if live.Faults != 0 || frozen.Faults != 0 {
		t.Fatalf("phantom faults: %d and %d", live.Faults, frozen.Faults)
	}
}

func drifts(r *Result) []float64 {
	out := make([]float64, len(r.Windows))
	for i, w := range r.Windows {
		out[i] = w.Drift
	}
	return out
}

// TestRunEpochsAdvanceAtReplanBoundaries pins the epoch bookkeeping: every
// window before the first replan runs at epoch 1, the window after a
// replanned one runs at the next epoch, and epochs never move otherwise.
func TestRunEpochsAdvanceAtReplanBoundaries(t *testing.T) {
	base, windows := flipWorkload(t)
	cond := join.NewBand(50)
	res, err := Run(exec.LocalStreamRuntime{Workers: 4}, base, windows, cond, flipConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows[0].Epoch != 1 {
		t.Fatalf("first window at epoch %d, want 1", res.Windows[0].Epoch)
	}
	for i := 1; i < len(res.Windows); i++ {
		prev, cur := res.Windows[i-1], res.Windows[i]
		want := prev.Epoch
		if prev.Replanned {
			want++
		}
		if cur.Epoch != want {
			t.Fatalf("window %d at epoch %d, want %d (prev replanned=%v)",
				i, cur.Epoch, want, prev.Replanned)
		}
	}
	if last := res.Windows[len(res.Windows)-1]; last.Replanned {
		t.Fatal("final window replanned: a plan with no window left to use")
	}
}

// TestRunUniformStreamNeverReplans: with no distribution movement, sampling
// noise alone must stay under the default threshold.
func TestRunUniformStreamNeverReplans(t *testing.T) {
	rng := stats.NewRNG(43)
	base := uniformKeys(rng, 20000, 0, 500_000)
	var windows [][]join.Key
	for i := 0; i < 6; i++ {
		windows = append(windows, uniformKeys(rng, 2000, 0, 500_000))
	}
	cond := join.NewBand(25)
	res, err := Run(exec.LocalStreamRuntime{Workers: 4}, base, windows, cond, flipConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Replans != 0 {
		t.Fatalf("uniform stream replanned %d times; drifts: %v", res.Replans, drifts(res))
	}
	if want := refCount(windows, base, cond); res.Total != want {
		t.Fatalf("total %d, reference %d", res.Total, want)
	}
}

// TestRunEquiHashEngine runs an equi join, which takes the hash engine,
// including an empty window mid-stream.
func TestRunEquiHashEngine(t *testing.T) {
	rng := stats.NewRNG(47)
	base := uniformKeys(rng, 10000, 0, 5000)
	windows := [][]join.Key{
		uniformKeys(rng, 1500, 0, 5000),
		nil, // an idle tick: no tuples arrived this window
		uniformKeys(rng, 1500, 0, 5000),
	}
	cfg := flipConfig(false)
	cfg.Opts.J = 3
	res, err := Run(exec.LocalStreamRuntime{Workers: 3}, base, windows, join.Equi{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := refCount(windows, base, join.Equi{}); res.Total != want {
		t.Fatalf("total %d, reference %d", res.Total, want)
	}
	if res.Windows[1].Count != 0 || res.Windows[1].Input != 0 || res.Windows[1].Drift != 0 {
		t.Fatalf("empty window accounted %+v", res.Windows[1])
	}
}

// TestRunValidation pins the argument contract.
func TestRunValidation(t *testing.T) {
	rng := stats.NewRNG(53)
	base := uniformKeys(rng, 100, 0, 1000)
	win := uniformKeys(rng, 100, 0, 1000)
	cfg := flipConfig(false)
	cases := []struct {
		name    string
		rt      exec.Runtime
		base    []join.Key
		windows [][]join.Key
	}{
		{"non-stream runtime", exec.Local{}, base, [][]join.Key{win}},
		{"no windows", exec.LocalStreamRuntime{Workers: 2}, base, nil},
		{"empty first window", exec.LocalStreamRuntime{Workers: 2}, base, [][]join.Key{nil, win}},
		{"empty base", exec.LocalStreamRuntime{Workers: 2}, nil, [][]join.Key{win}},
	}
	for _, c := range cases {
		if _, err := Run(c.rt, c.base, c.windows, join.Equi{}, cfg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestEpochRefusesAnotherConditionsPlan pins that a stream opens no epoch
// whose scheme routes for another condition than the stream's: the error is
// exec's typed refusal and the active plan stays as it was.
func TestEpochRefusesAnotherConditionsPlan(t *testing.T) {
	base, windows := flipWorkload(t)
	plan, err := core.PlanCSIO(windows[0], base, join.Equi{}, core.Options{J: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st := &runState{spec: exec.StreamSpec{Cond: join.NewBand(25)}}
	var mismatch *exec.CondMismatchError
	if err := st.adopt(plan); !errors.As(err, &mismatch) || st.plan != nil || st.epoch != 0 {
		t.Fatalf("adopting an equi plan on a band stream: %v (epoch %d)", err, st.epoch)
	}
	if plan, err = core.PlanCSIO(windows[0], base, join.NewBand(25), core.Options{J: 4, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := st.adopt(plan); err != nil || st.epoch != 1 {
		t.Fatalf("adopting the stream's own plan: %v (epoch %d)", err, st.epoch)
	}
}
