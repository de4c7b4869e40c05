package faultnet_test

import (
	"testing"

	"ewh/internal/faultnet"
	"ewh/internal/faultnet/scenario"
	"ewh/internal/wire"
)

// FuzzScenario runs the bit-identity generator: `go test` draws the committed
// seed range, `go test -fuzz FuzzScenario` further seeds.
func FuzzScenario(f *testing.F) {
	for seed := uint64(0); seed < scenario.Corpus; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		scenario.Draw(seed, scenario.Pin{}).Run(t)
	})
}

// TestScenarioRows runs the settings a seed's draw does not pin by itself,
// each through the generator's checks plus the row's own.
func TestScenarioRows(t *testing.T) {
	for _, r := range scenario.Rows() {
		t.Run(r.Name, func(t *testing.T) { r.Run(t) })
	}
}

// TestRecoveryBitIdenticalAcrossBoundaries strikes a multiway pipeline
// through the peer shuffle at each boundary of its life, one drawn scenario apiece: the
// retry must recover onto the spare and match the fault-free run per worker
// in both stages, with no pair through the coordinator.
func TestRecoveryBitIdenticalAcrossBoundaries(t *testing.T) {
	for i, b := range []struct {
		name  string
		fault scenario.Fault
	}{
		// The worker dies the instant its first stage-1 job arrives.
		{"stage1-open", scenario.Fault{Action: faultnet.ActHook, Dir: faultnet.In, Frame: wire.Open, N: 1}},
		// The coordinator link dies while relation 2's block, the second
		// key frame, is in flight; the worker stays up, excluded rather
		// than dead.
		{"mid-scatter", scenario.Fault{Action: faultnet.ActClose, Dir: faultnet.In, Frame: wire.StreamWin, N: 1}},
		// The worker ships its statistics summary, then dies before the
		// replanned stage-2 plan reaches it.
		{"post-stats", scenario.Fault{Action: faultnet.ActHook, Dir: faultnet.Out, Frame: wire.Reply}},
		// The worker dies as the stage-2 plan lands, its matches summarized
		// but never routed.
		{"plan2-arrival", scenario.Fault{Action: faultnet.ActHook, Dir: faultnet.In, Frame: wire.Plan2}},
		// The session link resets as the peer-fed stage-2 job opens, the
		// victim's second OPEN.
		{"stage2-open", scenario.Fault{Action: faultnet.ActReset, Dir: faultnet.In, Frame: wire.Open, N: 2}},
		// The worker dies as a peer's contribution opens on it: its third
		// OPEN, past its stage-1 job's and its stage-2 job's, which goes out
		// before any PLAN2 — an empty share still sends it.
		{"peer-head", scenario.Fault{Action: faultnet.ActHook, Dir: faultnet.In, Frame: wire.Open, N: 3}},
		// The worker dies while a contribution's base run lands on it: its
		// fourth base frame, past its stage-1 relation 1's one and its
		// stage-2 relation's one per mapper.
		{"mid-peer-transfer", scenario.Fault{Action: faultnet.ActHook, Dir: faultnet.In, Frame: wire.StreamBase, N: 4}},
		// The worker dies after one mapper's base frame of a relation: the
		// half-streamed relation is discarded and replanned onto survivors.
		{"chunk-boundary", scenario.Fault{Action: faultnet.ActHook, Dir: faultnet.In, Frame: wire.StreamBase, N: 2}},
	} {
		t.Run(b.name, func(t *testing.T) {
			scenario.RunSeeds(t, scenario.Pin{Job: scenario.Multiway, J: 3, Mappers: 2, Fault: &b.fault}, 1000+uint64(i), 1)
		})
	}
}

// TestCountJobRecoveryAtStreamFrameBoundaries strikes a two-way count job,
// whose relations ride the stream frames at epoch 0, at a sub-block boundary
// of either run: the replan onto survivors must equal exec.Run per worker at
// the survivor width.
func TestCountJobRecoveryAtStreamFrameBoundaries(t *testing.T) {
	for i, b := range []struct {
		name  string
		frame byte
	}{
		{"base-boundary", wire.StreamBase},
		{"window-boundary", wire.StreamWin},
	} {
		t.Run(b.name, func(t *testing.T) {
			pin := scenario.Pin{Job: scenario.Count, J: 3, Mappers: 2,
				Fault: &scenario.Fault{Action: faultnet.ActHook, Dir: faultnet.In, Frame: b.frame, N: 2}}
			scenario.RunSeeds(t, pin, 1100+uint64(2*i), 2)
		})
	}
}

// TestRecoveryFromStalledWorker wedges a worker (alive TCP peer, no progress)
// on a job's first frame: only Timeouts.Job cuts the stall, and recovery
// must then finish on the survivors with the reference result.
func TestRecoveryFromStalledWorker(t *testing.T) {
	stall := &scenario.Fault{Action: faultnet.ActStall, Dir: faultnet.In, Frame: wire.Open, N: 1}
	scenario.RunSeeds(t, scenario.Pin{Job: scenario.Multiway, J: 2, Fault: stall}, 1200, 1)
	scenario.RunSeeds(t, scenario.Pin{Job: scenario.Count, Fault: stall}, 1201, 1)
}
