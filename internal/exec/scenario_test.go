package exec_test

// The engine's crosschecks are slices of the bit-identity generator
// (internal/faultnet/scenario), each pinned to the job kind and runtime it
// is about and held to the same oracles: a nested-loop total, the pair
// contract read outside-in, and exec.Run's per-worker metrics.

import (
	"testing"

	"ewh/internal/faultnet/scenario"
)

// TestCrossCheckRunAgainstNestedLoop: count jobs in process over every
// condition and applicable scheme equal the nested-loop total, and network
// tuples do not depend on the mapper count.
func TestCrossCheckRunAgainstNestedLoop(t *testing.T) {
	scenario.RunSeeds(t, scenario.Pin{Job: scenario.Count, Runtime: scenario.Local}, 200, 6)
}

// TestExactOutputRandomConfigs: CSIO plans with the fallback off, at every J
// from 1 to 12, over random sizes, skew and conditions CSIO admits, produce
// the exact join.
func TestExactOutputRandomConfigs(t *testing.T) {
	for j := 1; j <= 12; j++ {
		pin := scenario.Pin{Job: scenario.Count, Runtime: scenario.Local, J: j, Scheme: "CSIO", NoFallback: true}
		scenario.Draw(100+uint64(j), pin).Run(t)
	}
}

// TestCrossCheckRunTuples: a pairs job in process emits every matching row
// pair exactly once, in the pair contract's order.
func TestCrossCheckRunTuples(t *testing.T) {
	scenario.RunSeeds(t, scenario.Pin{Job: scenario.Pairs, Runtime: scenario.Local}, 400, 4)
}

// TestCrossCheckSessionAgainstExec: count jobs over a session, faulted or
// not, equal exec.Run per worker.
func TestCrossCheckSessionAgainstExec(t *testing.T) {
	scenario.RunSeeds(t, scenario.Pin{Job: scenario.Count, Runtime: scenario.Session}, 300, 4)
}

// TestCrossCheckSessionTuples: a session repeats the in-process per-worker
// pair sequences.
func TestCrossCheckSessionTuples(t *testing.T) {
	scenario.RunSeeds(t, scenario.Pin{Job: scenario.Pairs, Runtime: scenario.Session}, 410, 4)
}

// TestRunPairsOverEmitsRowNumbers: the original row numbers reach emit, and
// two pool tenants running the job at once each repeat the in-process
// sequences.
func TestRunPairsOverEmitsRowNumbers(t *testing.T) {
	scenario.RunSeeds(t, scenario.Pin{Job: scenario.Pairs, Runtime: scenario.Pool}, 450, 3)
}

// TestCrossCheckSessionMultiway: the two-stage pipeline over a session, its
// workers contributing to each other, faulted or not, equals the in-process
// one per worker in both stages and the chain oracle in total.
func TestCrossCheckSessionMultiway(t *testing.T) {
	scenario.RunSeeds(t, scenario.Pin{Job: scenario.Multiway, Runtime: scenario.Session}, 600, 4)
}

// TestCrossCheckSessionMultiwayPeer: two tenants' pipelines share one
// fleet's workers at once; neither relays a pair through its coordinator
// and each equals the in-process run per worker.
func TestCrossCheckSessionMultiwayPeer(t *testing.T) {
	scenario.RunSeeds(t, scenario.Pin{Job: scenario.Multiway, Runtime: scenario.Pool}, 700, 3)
}
