package partition

import (
	"cmp"
	"fmt"
	"slices"

	"ewh/internal/tiling"
)

// Assignment maps the regions of an equi-weight histogram onto physical
// machines of heterogeneous capacity (§A5: "we assign work to machines
// proportionally to their capacity. To do so, we set the number of regions
// in the histogram algorithm higher than the number of machines").
type Assignment struct {
	// MachineOf[r] is the machine hosting region r.
	MachineOf []int
	// Load[m] is machine m's assigned weight.
	Load []float64
	// Capacity is the (normalized) capacity vector the assignment used.
	Capacity []float64
}

// AssignRegions distributes regions over machines with the given relative
// capacities (any positive scale), greedily placing heaviest regions first
// onto the machine with the lowest load/capacity ratio — LPT adapted to
// non-uniform speeds, a 2-approximation of the optimal makespan. Plan with
// J = a few × len(capacities) regions so the packer has granularity to
// exploit.
func AssignRegions(regions []tiling.Region, capacities []float64) (*Assignment, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("partition: no machines")
	}
	for i, c := range capacities {
		if c <= 0 {
			return nil, fmt.Errorf("partition: machine %d capacity %v <= 0", i, c)
		}
	}
	a := &Assignment{
		MachineOf: make([]int, len(regions)),
		Load:      make([]float64, len(capacities)),
		Capacity:  capacities,
	}
	order := make([]int, len(regions))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		return cmp.Compare(regions[y].Weight, regions[x].Weight)
	})
	for _, ri := range order {
		best, bestRatio := 0, (a.Load[0]+regions[ri].Weight)/capacities[0]
		for m := 1; m < len(capacities); m++ {
			if r := (a.Load[m] + regions[ri].Weight) / capacities[m]; r < bestRatio {
				best, bestRatio = m, r
			}
		}
		a.MachineOf[ri] = best
		a.Load[best] += regions[ri].Weight
	}
	return a, nil
}

// Makespan returns the maximum load/capacity ratio — the completion time of
// the slowest machine in capacity-normalized units.
func (a *Assignment) Makespan() float64 {
	max := 0.0
	for m, l := range a.Load {
		if r := l / a.Capacity[m]; r > max {
			max = r
		}
	}
	return max
}
