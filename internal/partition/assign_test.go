package partition

import (
	"testing"

	"ewh/internal/tiling"
)

func weights(ws ...float64) []tiling.Region {
	out := make([]tiling.Region, len(ws))
	for i, w := range ws {
		out[i].Weight = w
	}
	return out
}

func TestAssignRegionsUniform(t *testing.T) {
	regions := weights(5, 5, 5, 5, 5, 5, 5, 5)
	a, err := AssignRegions(regions, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for m, l := range a.Load {
		if l != 10 {
			t.Errorf("machine %d load %v, want 10", m, l)
		}
	}
	if a.Makespan() != 10 {
		t.Errorf("makespan %v, want 10", a.Makespan())
	}
}

func TestAssignRegionsHeterogeneous(t *testing.T) {
	// A machine twice as fast should receive about twice the weight.
	regions := weights(3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3)
	a, err := AssignRegions(regions, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := a.Load[0], a.Load[1]
	if fast < slow {
		t.Fatalf("fast machine load %v < slow machine load %v", fast, slow)
	}
	ratio := fast / slow
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("load ratio %v, want ≈2", ratio)
	}
}

func TestAssignRegionsErrors(t *testing.T) {
	if _, err := AssignRegions(weights(1), nil); err == nil {
		t.Error("no machines accepted")
	}
	if _, err := AssignRegions(weights(1), []float64{1, 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := AssignRegions(weights(1), []float64{-1}); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestAssignLPTBeatsNaive(t *testing.T) {
	// LPT should spread one huge region and many small ones well.
	regions := weights(100, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10)
	a, err := AssignRegions(regions, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal makespan = 100 (huge region alone); LPT must achieve it.
	if a.Makespan() > 110 {
		t.Fatalf("makespan %v, want ≈100", a.Makespan())
	}
}
