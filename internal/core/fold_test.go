package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/planio"
	"ewh/internal/sample"
	"ewh/internal/stats"
	"ewh/internal/workload"
)

// foldEntries are the planner entries one cell of
// TestPlansByteIdenticalAcrossTheFold runs, in the column order of foldGolden.
var foldEntries = [5]string{"csio", "csio+adapt", "summary<pop", "summary>pop", "csi"}

// foldKeys generates n keys of one of the three distributions the table
// crosses. The X dataset (BCB's input) comes in multiples of five tuples.
func foldKeys(dist string, n int, seed uint64) []join.Key {
	switch dist {
	case "uniform":
		return workload.Uniform(n, int64(n), seed)
	case "zipf":
		return workload.Zipfian(n, int64(n), 0.8, seed)
	default:
		return workload.X(n/5, stats.NewRNG(seed))
	}
}

// foldRecord is what the table pins of one plan: the first four bytes of the
// SHA-256 of its tiling's planio encoding, then M, NS, NC and Fallback. The
// tiling is the scheme without the condition a region scheme routes for —
// the codec's version 1 bytes — which planio's own tests pin.
func foldRecord(t *testing.T, plan *Plan, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	scheme := plan.Scheme
	if rs, ok := scheme.(*partition.RegionScheme); ok {
		scheme = partition.NewRegionScheme(rs.Name(), rs.Regions())
	}
	data, err := planio.Encode(&planio.Artifact{Scheme: scheme, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fb := 0
	if plan.Fallback {
		fb = 1
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x:%d:%d:%d:%d", sum[:4], plan.M, plan.NS, plan.NC, fb)
}

// TestPlansByteIdenticalAcrossTheFold pins every planner entry's plan at the
// byte level — RNG draw order, sizes, fallback decisions — across conditions
// × distributions × J × size ratios, where the 12 golden triples sample three
// inputs. foldGolden was first recorded before PlanCSIO, PlanCSIOFromSummary
// and BuildSampleMatrix were folded onto one pipeline (the fold moved no
// plan), and re-recorded when PlanCSIO began walking R1's input sample and
// reading R2's histogram off its multiset (cells where si ≥ n kept their
// bytes; no csi digest moved). It digests the tiling alone since region
// schemes began routing for their condition, which moved no digest. `<` runs
// with the §VI-E fallback armed (it fires), `>=` with it disabled. After a
// DELIBERATE planner change, paste the rows a failing run prints.
func TestPlansByteIdenticalAcrossTheFold(t *testing.T) {
	conds := []struct {
		name string
		cond join.Condition
	}{
		{"equi", join.Equi{}},
		{"band0", join.NewBand(0)},
		{"band3", join.NewBand(3)},
		{"lt", join.Inequality{Op: join.Less}},
		{"ge", join.Inequality{Op: join.GreaterEq}},
	}
	sizes := []struct {
		name   string
		n1, n2 int
	}{{"n1=n2", 3000, 3000}, {"n1<n2", 300, 6000}, {"n1>n2", 6000, 300}}
	for _, c := range conds {
		for _, dist := range []string{"uniform", "zipf", "bcb"} {
			for _, sz := range sizes {
				r1 := foldKeys(dist, sz.n1, 101)
				r2 := foldKeys(dist, sz.n2, 202)
				below := sample.Summarize(r1, 128, 64, stats.NewRNG(5))
				above := sample.Summarize(r1, 8192, 64, stats.NewRNG(5))
				for _, j := range []int{1, 4, 7} {
					name := fmt.Sprintf("%s/%s/%s/J%d", c.name, dist, sz.name, j)
					opts := Options{J: j, Model: model, Seed: 11, DisableFallback: c.name == "ge"}
					adapt := opts
					adapt.AdaptNS = true
					var got [5]string
					plan, err := PlanCSIO(r1, r2, c.cond, opts)
					got[0] = foldRecord(t, plan, err)
					plan, err = PlanCSIO(r1, r2, c.cond, adapt)
					got[1] = foldRecord(t, plan, err)
					plan, err = PlanCSIOFromSummary(below, r2, c.cond, opts)
					got[2] = foldRecord(t, plan, err)
					plan, err = PlanCSIOFromSummary(above, r2, c.cond, opts)
					got[3] = foldRecord(t, plan, err)
					plan, err = PlanCSI(r1, r2, c.cond, 64, opts)
					got[4] = foldRecord(t, plan, err)
					if want := foldGolden[name]; got != want {
						for i := range got {
							if got[i] != want[i] {
								t.Errorf("%s %s: plan %s, recorded %s", name, foldEntries[i], got[i], want[i])
							}
						}
						t.Logf("paste: %q: {%q, %q, %q, %q, %q},", name, got[0], got[1], got[2], got[3], got[4])
					}
				}
			}
		}
	}
}
