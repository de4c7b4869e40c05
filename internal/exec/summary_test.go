package exec

import (
	"slices"
	"testing"

	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/planio"
	"ewh/internal/sample"
	"ewh/internal/stage"
	"ewh/internal/stats"
)

// TestSummarySizesBelongToTheirStep pins the size of each summary a step
// draws, since no caller states one: a stage summary samples at most
// AdaptiveCap(n, 4096) keys under 256 buckets, a window summary at most 1024
// keys under 64. The shards' keys are distinct, so an equi-depth histogram
// of n keys has min(n, buckets) + 1 bounds.
func TestSummarySizesBelongToTheirStep(t *testing.T) {
	clk := stage.Start()
	res := localjoin.NewResident(join.Equi{}, false, nil, &clk)
	res.Seal(randKeys(1000, 1<<40, 70))
	for _, n := range []int{0, 100, 20_000, 100_000} {
		keys := make([]join.Key, n) // distinct, out of order: 7919 is a unit mod the prime 100,003
		for i := range keys {
			keys[i] = join.Key(i * 7919 % 100_003)
		}

		enc, err := StageSummary(slices.Clone(keys), StatsSpec{Seed: 72}, 1)
		if err != nil {
			t.Fatal(err)
		}
		stageSum, err := planio.DecodeSummary(enc)
		if err != nil {
			t.Fatal(err)
		}
		_, winSum := CloseWindow(res, slices.Clone(keys), StatsSpec{Seed: 73}, 1, 2)
		if n == 0 {
			if winSum != nil {
				t.Error("an empty window shard has a summary")
			}
			winSum = &stats.Summary{}
		}
		for _, c := range []struct {
			step         string
			sum          *stats.Summary
			cap, buckets int
		}{
			{"stage", stageSum, sample.AdaptiveCap(n, 4096), 256},
			{"window", winSum, 1024, 64},
		} {
			wantKeys, wantBounds := min(n, c.cap), min(n, c.buckets)+1
			if n == 0 {
				wantBounds = 0
			}
			if c.sum.Count != int64(n) || len(c.sum.Keys) != wantKeys || len(c.sum.Bounds) != wantBounds {
				t.Errorf("n=%d: %s summary holds count %d, %d keys, %d bounds; want %d, %d, %d",
					n, c.step, c.sum.Count, len(c.sum.Keys), len(c.sum.Bounds), n, wantKeys, wantBounds)
			}
		}
	}
}
