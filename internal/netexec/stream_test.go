package netexec

import (
	"context"
	"testing"
	"time"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/faultnet"
	"ewh/internal/join"
	"ewh/internal/keysort"
	"ewh/internal/localjoin"
	"ewh/internal/stats"
	"ewh/internal/streamjoin"
	"ewh/internal/wire"
)

func streamUniformKeys(rng *stats.RNG, n int, lo, span int64) []join.Key {
	ks := make([]join.Key, n)
	for i := range ks {
		ks[i] = join.Key(lo + rng.Int64n(span))
	}
	return ks
}

// streamFlipWorkload is the skew-flip stream the replanning experiments run:
// two windows uniform over the wide keyspace, then the distribution
// collapses into a narrow range for the rest of the stream.
func streamFlipWorkload() (base []join.Key, windows [][]join.Key) {
	rng := stats.NewRNG(61)
	base = streamUniformKeys(rng, 20000, 0, 400_000)
	for i := 0; i < 2; i++ {
		windows = append(windows, streamUniformKeys(rng, 2000, 0, 400_000))
	}
	for i := 0; i < 10; i++ {
		windows = append(windows, streamUniformKeys(rng, 2000, 0, 10_000))
	}
	return base, windows
}

func streamRefCount(windows [][]join.Key, base []join.Key, cond join.Condition) int64 {
	var all []join.Key
	for _, w := range windows {
		all = append(all, w...)
	}
	keysort.Sort(all)
	b := append([]join.Key(nil), base...)
	keysort.Sort(b)
	return localjoin.CountSorted(all, b, cond)
}

// TestStreamWorkerDeathAfterReplanRecovers is the fault scenario: a worker
// dies mid-window while the stream is running under a drift-replanned epoch.
// The driver must derive the survivor fleet, replan over it, re-send the
// base and the failed window under a fresh epoch, and finish with a count
// bit-identical to the fault-free reference — with zero pairs relayed.
func TestStreamWorkerDeathAfterReplanRecovers(t *testing.T) {
	leakCheck(t)
	base, windows := streamFlipWorkload()
	cond := join.NewBand(25)
	want := streamRefCount(windows, base, cond)

	const fleet, victim = 4, 2
	var victimW *Worker // set before the job starts
	kill := func() { _ = victimW.Close() }
	// Window-end frames arrive once per window regardless of shard sizes, so
	// the 4th one is window index 3 — the first full window AFTER the drift
	// replan at window 2 cut the stream over to epoch 2.
	script := faultnet.NewScript(faultnet.Rule{
		Dir: faultnet.In, Frame: wire.StreamWinEnd, N: 4,
		Action: faultnet.ActHook, Fn: kill,
	})

	scripts := make([]*faultnet.Script, fleet)
	scripts[victim] = script
	ws, addrs := startWorkers(t, nil, scripts...)
	victimW = ws[victim]

	sess, err := DialTenant(context.Background(), "", addrs, Timeouts{Dial: 2 * time.Second, Job: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sess.Close() })

	before := sess.RelayedPairs()
	res, err := streamjoin.Run(sess, base, windows, cond, streamjoin.Config{
		Opts:  core.Options{J: 4, Model: model, Seed: 5},
		Exec:  exec.Config{Seed: 6},
		Stats: exec.StatsSpec{Seed: 7},
	})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !script.Fired() {
		t.Fatal("fault never injected; the run proves nothing")
	}
	if res.Faults != 1 {
		t.Fatalf("recovered from %d faults, want 1", res.Faults)
	}
	if res.Replans < 1 {
		t.Fatal("the drift replan never fired before the fault")
	}
	if res.Total != want {
		t.Fatalf("recovered total %d, fault-free reference %d", res.Total, want)
	}
	if relayed := sess.RelayedPairs() - before; relayed != 0 {
		t.Fatalf("%d pairs transited the coordinator during recovery", relayed)
	}
	if _, n, serr := sess.Survivors(); serr != nil || n != fleet-1 {
		t.Fatalf("survivors after recovery: %d (%v), want %d", n, serr, fleet-1)
	}
	if last := res.Windows[len(res.Windows)-1]; last.Epoch < 3 {
		t.Fatalf("final window at epoch %d; recovery never opened a fresh epoch", last.Epoch)
	}
}
