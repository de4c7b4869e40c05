package faultnet_test

// The fault-recovery crosscheck: kill one worker at each pipeline boundary
// — stage-1 open, mid-scatter, after its statistics summary, as the stage-2
// plan arrives, stage-2 open, as a peer contribution's head lands,
// mid-peer-transfer —
// and assert the session recovers onto the survivors
// with output BIT-IDENTICAL to a fault-free in-process run. Determinism is
// what makes this assertable: every retry attempt replans from scratch for
// its fleet size with the same seeds, so a recovered J=3 run and a
// never-faulted J=3 run are the same computation. The fleet carries one
// spare worker beyond opts.J, so the survivor count never drops below the
// planned width and the reference stays valid across the kill.

import (
	"context"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/faultnet"
	"ewh/internal/join"
	"ewh/internal/multiway"
	"ewh/internal/netexec"
	"ewh/internal/partition"
	"ewh/internal/workload"
)

var ckModel = cost.Model{Wi: 1, Wo: 0.2}

func ckLeakCheck(t *testing.T) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= baseline+2 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked: baseline %d, now %d\n%s",
			baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	})
}

// netListenTCP binds a loopback listener for the victim's faultnet tap.
func netListenTCP() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func TestRecoveryBitIdenticalAcrossBoundaries(t *testing.T) {
	const (
		fleet  = 4 // opts.J participants + one spare for recovery
		victim = 1 // inside the first J conns, so it works before it dies
		j      = 3
	)
	q := multiway.Query{
		R1: workload.Zipfian(1000, 300, 0.9, 11),
		Mid: multiway.MidRelation{
			A: workload.Zipfian(1000, 300, 0.9, 12),
			B: workload.Zipfian(1000, 300, 1.1, 13),
		},
		R3:    workload.Zipfian(1000, 300, 0.9, 14),
		CondA: join.NewBand(1),
		CondB: join.Equi{},
	}
	opts := core.Options{J: j, Model: ckModel, Seed: 7}
	cfg := exec.Config{Seed: 42, Mappers: 2, Retries: 2}

	// The fault-free in-process reference every recovered run must match.
	local, err := multiway.Execute(q, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	scenarios := []struct {
		name string
		rule func(kill func()) faultnet.Rule
	}{
		{"stage1-open", func(kill func()) faultnet.Rule {
			// The worker dies the instant its first stage-1 job arrives.
			return faultnet.Rule{Dir: faultnet.In, Frame: faultnet.FrameOpenJob,
				Action: faultnet.ActHook, Fn: kill}
		}},
		{"mid-scatter", func(func()) faultnet.Rule {
			// The coordinator link dies while the second relation's block is
			// in flight; the worker itself stays up (an excluded, not dead,
			// worker — recovery must route around it all the same).
			return faultnet.Rule{Dir: faultnet.In, Frame: faultnet.FrameBlock,
				N: 2, Action: faultnet.ActClose}
		}},
		{"post-stats", func(kill func()) faultnet.Rule {
			// The worker ships its statistics summary, then dies before the
			// replanned PLAN2 can reach it.
			return faultnet.Rule{Dir: faultnet.Out, Frame: faultnet.FrameStats,
				Action: faultnet.ActHook, Fn: kill}
		}},
		{"plan2-arrival", func(kill func()) faultnet.Rule {
			// The worker dies the instant the replanned stage-2 plan reaches
			// it, parked with its matches summarized but never routed.
			return faultnet.Rule{Dir: faultnet.In, Frame: faultnet.FramePlan2,
				Action: faultnet.ActHook, Fn: kill}
		}},
		{"stage2-open", func(func()) faultnet.Rule {
			// The session link resets exactly as the peer-fed stage-2 job
			// opens.
			return faultnet.Rule{Dir: faultnet.In, Frame: faultnet.FrameOpenPeerJob,
				Action: faultnet.ActReset}
		}},
		{"peer-head", func(kill func()) faultnet.Rule {
			// The worker dies as a sender's contribution head lands — the
			// only frame an empty share sends — with its stage-2 job parked
			// on a transfer that never completes.
			return faultnet.Rule{Dir: faultnet.In, Frame: faultnet.FramePeerHead,
				Action: faultnet.ActHook, Fn: kill}
		}},
		{"mid-peer-transfer", func(kill func()) faultnet.Rule {
			// The worker dies while a peer contribution is streaming into it.
			return faultnet.Rule{Dir: faultnet.In, Frame: faultnet.FramePeerBlock,
				Action: faultnet.ActHook, Fn: kill}
		}},
		{"chunk-boundary", func(kill func()) faultnet.Rule {
			// The worker dies at a sub-block chunk boundary: it has decoded
			// the first mapper's base frame of a peer-fed job's relation 2
			// but the second and the exact-count end frame never arrive, so
			// recovery must discard the half-streamed relation and replan
			// onto survivors.
			return faultnet.Rule{Dir: faultnet.In, Frame: faultnet.FrameStreamBase,
				N: 2, Action: faultnet.ActHook, Fn: kill}
		}},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ckLeakCheck(t)
			var victimW *netexec.Worker
			kill := func() {
				if victimW != nil {
					_ = victimW.Close()
				}
			}
			script := faultnet.NewScript(sc.rule(kill))

			addrs := make([]string, fleet)
			for i := 0; i < fleet; i++ {
				var w *netexec.Worker
				if i == victim {
					ln, err := netListenTCP()
					if err != nil {
						t.Fatal(err)
					}
					w = netexec.ListenWorkerOn(faultnet.Wrap(ln, script))
					victimW = w
				} else {
					var err error
					w, err = netexec.ListenWorker("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
				}
				addrs[i] = w.Addr()
				go func() { _ = w.Serve() }()
				t.Cleanup(func() { _ = w.Close() })
			}

			sess, err := netexec.DialTenant(context.Background(), "", addrs, netexec.Timeouts{
				Dial: 2 * time.Second, Job: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = sess.Close() })

			before := sess.RelayedPairs()
			res, err := multiway.ExecuteOver(sess, q, opts, cfg)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if !script.Fired() {
				t.Fatal("fault never injected; the run proves nothing")
			}
			if res.Output != local.Output || res.Intermediate != local.Intermediate {
				t.Fatalf("recovered run diverged: got (out=%d mid=%d), fault-free (out=%d mid=%d)",
					res.Output, res.Intermediate, local.Output, local.Intermediate)
			}
			if relayed := sess.RelayedPairs() - before; relayed != 0 {
				t.Fatalf("%d pairs transited the coordinator during recovery", relayed)
			}
			if _, n, serr := sess.Survivors(); serr != nil || n != fleet-1 {
				t.Fatalf("survivors after recovery: %d (%v), want %d", n, serr, fleet-1)
			}
		})
	}
}

// TestCountJobRecoveryAtStreamFrameBoundaries is the two-way count job's
// counterpart: its relations ride the stream frames at epoch 0, relation 1
// as the base and relation 2 as the window, and a worker dies at a sub-block
// boundary of either run. The retry replans onto the survivors and every
// per-worker metric equals a fault-free in-process run at the survivor width.
func TestCountJobRecoveryAtStreamFrameBoundaries(t *testing.T) {
	const fleet, victim, j = 4, 1, 3
	r1 := workload.Zipfian(2000, 300, 0.9, 31)
	r2 := workload.Zipfian(2000, 300, 0.9, 32)
	cond := join.NewBand(1)
	cfg := exec.Config{Seed: 43, Mappers: 2, Retries: 2}
	plan := func(j int) (partition.Scheme, error) { return partition.NewCI(j), nil }
	local := exec.Run(r1, r2, cond, partition.NewCI(j), ckModel, cfg)

	for _, sc := range []struct {
		name  string
		frame byte
	}{
		{"base-boundary", faultnet.FrameStreamBase},
		{"window-boundary", faultnet.FrameStreamWin},
	} {
		t.Run(sc.name, func(t *testing.T) {
			ckLeakCheck(t)
			var victimW *netexec.Worker
			script := faultnet.NewScript(faultnet.Rule{Dir: faultnet.In, Frame: sc.frame,
				N: 2, Action: faultnet.ActHook, Fn: func() { _ = victimW.Close() }})
			addrs := make([]string, fleet)
			for i := range addrs {
				ln, err := netListenTCP()
				if err != nil {
					t.Fatal(err)
				}
				if i == victim {
					ln = faultnet.Wrap(ln, script)
				}
				w := netexec.ListenWorkerOn(ln)
				if i == victim {
					victimW = w
				}
				addrs[i] = w.Addr()
				go func() { _ = w.Serve() }()
				t.Cleanup(func() { _ = w.Close() })
			}
			sess, err := netexec.DialTenant(context.Background(), "", addrs, netexec.Timeouts{
				Dial: 2 * time.Second, Job: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = sess.Close() })

			res, err := exec.RunOverReplan(sess, r1, r2, cond, j, plan, ckModel, cfg)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if !script.Fired() {
				t.Fatal("fault never injected; the run proves nothing")
			}
			if res.Output != local.Output || !reflect.DeepEqual(res.Workers, local.Workers) {
				t.Fatalf("recovered run diverged: got %d %+v, fault-free %d %+v",
					res.Output, res.Workers, local.Output, local.Workers)
			}
			if _, n, serr := sess.Survivors(); serr != nil || n != fleet-1 {
				t.Fatalf("survivors after recovery: %d (%v), want %d", n, serr, fleet-1)
			}
		})
	}
}

func TestRecoveryFromStalledWorker(t *testing.T) {
	// ActStall against the liveness deadline: the victim wedges (alive TCP
	// peer, no progress) on its first stage-1 job; only Timeouts.Job can
	// unstick the coordinator, and recovery must then finish on the
	// survivors with the reference output.
	ckLeakCheck(t)
	q := multiway.Query{
		R1: workload.Zipfian(600, 200, 0.9, 21),
		Mid: multiway.MidRelation{
			A: workload.Zipfian(600, 200, 0.9, 22),
			B: workload.Zipfian(600, 200, 1.1, 23),
		},
		R3:    workload.Zipfian(600, 200, 0.9, 24),
		CondA: join.NewBand(1),
		CondB: join.Equi{},
	}
	opts := core.Options{J: 2, Model: ckModel, Seed: 5}
	cfg := exec.Config{Seed: 6, Mappers: 2, Retries: 2}
	local, err := multiway.Execute(q, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	script := faultnet.NewScript(faultnet.Rule{
		Dir: faultnet.In, Frame: faultnet.FrameOpenJob, Action: faultnet.ActStall})
	addrs := make([]string, 3)
	for i := 0; i < 3; i++ {
		var w *netexec.Worker
		if i == 1 {
			ln, err := netListenTCP()
			if err != nil {
				t.Fatal(err)
			}
			w = netexec.ListenWorkerOn(faultnet.Wrap(ln, script))
		} else {
			var err error
			w, err = netexec.ListenWorker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
		}
		addrs[i] = w.Addr()
		go func() { _ = w.Serve() }()
		t.Cleanup(func() { _ = w.Close() })
	}
	sess, err := netexec.DialTenant(context.Background(), "", addrs, netexec.Timeouts{Job: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sess.Close() })

	res, err := multiway.ExecuteOver(sess, q, opts, cfg)
	if err != nil {
		t.Fatalf("recovery from stall failed: %v", err)
	}
	if !script.Fired() {
		t.Fatal("stall never injected")
	}
	if res.Output != local.Output || res.Intermediate != local.Intermediate {
		t.Fatalf("recovered run diverged: got (out=%d mid=%d), fault-free (out=%d mid=%d)",
			res.Output, res.Intermediate, local.Output, local.Intermediate)
	}
}
