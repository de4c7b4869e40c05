package exec_test

// Cross-check harness for the persistent-session transport: the distributed
// RunTuplesOver and the multiway pipeline must be BIT-IDENTICAL to the
// in-process engine — same per-worker metrics, same aggregates, and the
// same emitted pair sequence per worker — across schemes, payload shapes
// and mapper counts, since every transport consumes the same shuffled
// blocks and runs the same deterministic pair join.

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ewh/internal/core"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/multiway"
	"ewh/internal/netexec"
	"ewh/internal/partition"
	"ewh/internal/stats"
	"ewh/internal/workload"
)

func dialLoopbackSession(t *testing.T, n int) *netexec.Session {
	t.Helper()
	sess, err := netexec.Dial(startLoopbackWorkers(t, n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sess.Close() })
	return sess
}

type emittedPair struct {
	a, b exec.Tuple[join.Key]
}

func TestCrossCheckSessionTuples(t *testing.T) {
	const maxWorkers = 8
	sess := dialLoopbackSession(t, maxWorkers)
	mapperCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	for seed := uint64(400); seed < 402; seed++ {
		rng := stats.NewRNG(seed)
		n1 := 300 + int(rng.Int64n(700))
		n2 := 300 + int(rng.Int64n(700))
		domain := 100 + rng.Int64n(500)
		k1 := netRandKeys(n1, domain, seed+1)
		k2 := netRandKeys(n2, domain, seed+2)
		r1 := make([]exec.Tuple[join.Key], n1)
		for i, k := range k1 {
			r1[i] = exec.Tuple[join.Key]{Key: k, Payload: k * 5}
		}
		r2 := make([]exec.Tuple[join.Key], n2)
		for i, k := range k2 {
			r2[i] = exec.Tuple[join.Key]{Key: k, Payload: k * 9}
		}
		cond := join.NewBand(2)
		want := localjoin.NestedLoopCount(k1, k2, cond)

		opts := core.Options{J: 6, Model: netModel, Seed: seed + 3}
		schemes := []partition.Scheme{partition.NewCI(4)}
		if csio, err := core.PlanCSIO(k1, k2, cond, opts); err == nil {
			schemes = append(schemes, csio.Scheme)
		} else {
			t.Fatal(err)
		}
		if bcast, err := partition.NewBroadcast(5); err == nil {
			schemes = append(schemes, bcast)
		}

		for _, s := range schemes {
			for _, mappers := range mapperCounts {
				id := fmt.Sprintf("seed %d %s mappers=%d", seed, s.Name(), mappers)
				cfg := exec.Config{Seed: seed + 4, Mappers: mappers}
				run := func(rt exec.Runtime) ([][]emittedPair, *exec.Result) {
					perWorker := make([][]emittedPair, s.Workers())
					res, err := exec.RunTuplesOver(rt, r1, r2, cond, s, netModel, cfg,
						func(w int, a, b exec.Tuple[join.Key]) {
							perWorker[w] = append(perWorker[w], emittedPair{a, b})
						})
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					return perWorker, res
				}
				localPairs, localRes := run(exec.Local{})
				sessPairs, sessRes := run(sess)

				if localRes.Output != want {
					t.Fatalf("%s: local output %d, ground truth %d", id, localRes.Output, want)
				}
				if sessRes.Output != localRes.Output || sessRes.NetworkTuples != localRes.NetworkTuples ||
					sessRes.MaxWork != localRes.MaxWork || sessRes.TotalWork != localRes.TotalWork {
					t.Errorf("%s: aggregates differ: sess %v local %v", id, sessRes, localRes)
				}
				for w := range localRes.Workers {
					if sessRes.Workers[w] != localRes.Workers[w] {
						t.Errorf("%s: worker %d metrics differ: sess %+v local %+v",
							id, w, sessRes.Workers[w], localRes.Workers[w])
					}
					if len(sessPairs[w]) != len(localPairs[w]) {
						t.Fatalf("%s: worker %d pair counts differ: sess %d local %d",
							id, w, len(sessPairs[w]), len(localPairs[w]))
					}
					for i := range localPairs[w] {
						if sessPairs[w][i] != localPairs[w][i] {
							t.Fatalf("%s: worker %d pair %d differs: sess %+v local %+v",
								id, w, i, sessPairs[w][i], localPairs[w][i])
						}
					}
				}
			}
		}
	}
}

// TestRunPairsOverEmitsRowNumbers pins the pair driver's contract: emit
// receives the ORIGINAL row numbers of each matched pair — the multiset over
// all workers is exactly the nested-loop join's — and per worker the sequence
// is identical in-process and over a session.
func TestRunPairsOverEmitsRowNumbers(t *testing.T) {
	sess := dialLoopbackSession(t, 6)
	r1 := netRandKeys(500, 120, 451)
	r2 := netRandKeys(400, 120, 452)
	hash, err := partition.NewHash(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	band := join.NewBand(2)
	csio, err := core.PlanCSIO(r1, r2, band, core.Options{J: 6, Model: netModel, Seed: 453})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cond   join.Condition
		scheme partition.Scheme
	}{{join.Equi{}, hash}, {band, partition.NewCI(4)}, {band, csio.Scheme}} {
		for _, mappers := range []int{1, 3} {
			id := fmt.Sprintf("%s mappers=%d", c.scheme.Name(), mappers)
			run := func(rt exec.Runtime) [][][2]int {
				perWorker := make([][][2]int, c.scheme.Workers())
				_, err := exec.RunPairsOver(rt, r1, r2, c.cond, c.scheme, netModel,
					exec.Config{Seed: 454, Mappers: mappers},
					func(w, row1, row2 int) { perWorker[w] = append(perWorker[w], [2]int{row1, row2}) })
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				return perWorker
			}
			local, remote := run(exec.Local{}), run(sess)
			got := map[[2]int]int{}
			for w := range local {
				if !slices.Equal(local[w], remote[w]) {
					t.Fatalf("%s: worker %d pair sequence differs between Local and the session", id, w)
				}
				for _, p := range local[w] {
					got[p]++
				}
			}
			want := 0
			for i, a := range r1 {
				for j, b := range r2 {
					if c.cond.Matches(a, b) {
						want++
						if got[[2]int{i, j}] != 1 {
							t.Fatalf("%s: matching rows (%d, %d) emitted %d times", id, i, j, got[[2]int{i, j}])
						}
					}
				}
			}
			if len(got) != want {
				t.Fatalf("%s: %d distinct pairs emitted, the join has %d", id, len(got), want)
			}
		}
	}
}

// chainOracle counts R1 ⋈ Mid ⋈ R3 and its intermediate without the engine:
// each Mid row contributes its R1 partners, times its R3 partners.
func chainOracle(q multiway.Query) (out, inter int64) {
	for i, a := range q.Mid.A {
		var c1, c3 int64
		for _, k := range q.R1 {
			if q.CondA.Matches(k, a) {
				c1++
			}
		}
		for _, k := range q.R3 {
			if q.CondB.Matches(q.Mid.B[i], k) {
				c3++
			}
		}
		inter += c1
		out += c1 * c3
	}
	return out, inter
}

// TestCrossCheckSessionMultiway pins the one stage pipeline worker by worker:
// exec.Local and a loopback session run the same stage steps, so every
// per-worker metric of BOTH stages is identical — stage 2 is planned from the
// same summaries and routed by the same per-sender streams — and the totals
// equal an oracle that does not use the engine.
func TestCrossCheckSessionMultiway(t *testing.T) {
	const maxWorkers = 8
	sess := dialLoopbackSession(t, maxWorkers)

	for seed := uint64(600); seed < 606; seed++ {
		rng := stats.NewRNG(seed)
		n := 400 + int(rng.Int64n(600))
		domain := 80 + rng.Int64n(300)
		for _, condB := range []join.Condition{join.Equi{}, join.NewBand(2)} {
			q := multiway.Query{
				R1: netRandKeys(n, domain, seed+1),
				Mid: multiway.MidRelation{
					A: netRandKeys(n, domain, seed+2),
					B: netRandKeys(n, domain, seed+3),
				},
				R3:    netRandKeys(n, domain, seed+4),
				CondA: join.NewBand(1),
				CondB: condB,
			}
			wantOut, wantInter := chainOracle(q)
			for _, workers := range []int{2, 4, 5} {
				opts := core.Options{J: workers, Model: netModel, Seed: seed + 5}
				for _, mappers := range []int{1, 3} {
					cfg := exec.Config{Seed: seed + 6, Mappers: mappers}
					id := fmt.Sprintf("seed %d condB %v J=%d mappers=%d", seed, condB, workers, mappers)
					local, err := multiway.Execute(q, opts, cfg)
					if err != nil {
						t.Fatalf("%s: local: %v", id, err)
					}
					dist, err := multiway.ExecuteOver(sess, q, opts, cfg)
					if err != nil {
						t.Fatalf("%s: session: %v", id, err)
					}
					for what, r := range map[string]*multiway.Result{"local": local, "session": dist} {
						if r.Output != wantOut || r.Intermediate != wantInter {
							t.Fatalf("%s: %s out=%d mid=%d, oracle out=%d mid=%d",
								id, what, r.Output, r.Intermediate, wantOut, wantInter)
						}
					}
					for si := range local.Stages {
						le, de := local.Stages[si].Exec, dist.Stages[si].Exec
						if len(de.Workers) != len(le.Workers) {
							t.Fatalf("%s: stage %d ran %d workers over the session, %d in process",
								id, si+1, len(de.Workers), len(le.Workers))
						}
						for w := range le.Workers {
							if de.Workers[w] != le.Workers[w] {
								t.Errorf("%s: stage %d worker %d metrics differ: sess %+v local %+v",
									id, si+1, w, de.Workers[w], le.Workers[w])
							}
						}
					}
				}
			}
		}
	}
}

func TestCrossCheckSessionMultiwayPeerCSIO(t *testing.T) {
	// The content-sensitive peer path: the stage-2 plan is a genuine CSIO
	// equi-weight histogram built from DISTRIBUTED statistics — each worker
	// summarizes its local intermediate, only the summaries reach the
	// coordinator. On a skewed (Zipf) workload, across seeds and worker
	// counts: (1) zero pairs transit the coordinator; (2) Output and
	// Intermediate are bit-identical to the in-process engine; (3) stage-1
	// per-worker metrics are bit-identical to in-process (same plan, same
	// shuffle); (4) the replanned stage-2 scheme really is the
	// content-sensitive one (no silent fallback on this workload).
	const maxWorkers = 8
	sess := dialLoopbackSession(t, maxWorkers)

	for seed := uint64(900); seed < 903; seed++ {
		rng := stats.NewRNG(seed)
		n := 500 + int(rng.Int64n(500))
		domain := int64(200 + rng.Int64n(400))
		for _, workers := range []int{2, 4} {
			for _, condB := range []join.Condition{join.Equi{}, join.NewBand(2)} {
				q := multiway.Query{
					R1: workload.Zipfian(n, domain, 0.9, seed+1),
					Mid: multiway.MidRelation{
						A: workload.Zipfian(n, domain, 0.9, seed+2),
						B: workload.Zipfian(n, domain, 1.1, seed+3),
					},
					R3:    workload.Zipfian(n, domain, 0.9, seed+4),
					CondA: join.NewBand(1),
					CondB: condB,
				}
				opts := core.Options{J: workers, Model: netModel, Seed: seed + 5}
				cfg := exec.Config{Seed: seed + 6, Mappers: 2}
				id := fmt.Sprintf("seed %d J=%d condB %v", seed, workers, condB)

				local, err := multiway.Execute(q, opts, cfg)
				if err != nil {
					t.Fatalf("%s: local: %v", id, err)
				}
				before := sess.RelayedPairs()
				peer, err := multiway.ExecuteOver(sess, q, opts, cfg)
				if err != nil {
					t.Fatalf("%s: csio peer: %v", id, err)
				}
				if relayed := sess.RelayedPairs() - before; relayed != 0 {
					t.Fatalf("%s: %d intermediate pairs transited the coordinator on the CSIO-peer path",
						id, relayed)
				}
				if peer.Output != local.Output || peer.Intermediate != local.Intermediate {
					t.Fatalf("%s: results differ: csio-peer (out=%d mid=%d) local (out=%d mid=%d)",
						id, peer.Output, peer.Intermediate, local.Output, local.Intermediate)
				}
				l1, p1 := local.Stages[0].Exec, peer.Stages[0].Exec
				for w := range l1.Workers {
					if p1.Workers[w] != l1.Workers[w] {
						t.Errorf("%s: stage 1 worker %d metrics differ: peer %+v local %+v",
							id, w, p1.Workers[w], l1.Workers[w])
					}
				}
				if s2 := peer.Stages[1].Exec.Scheme; s2 != "CSIO@sess" {
					t.Errorf("%s: stage 2 ran %q, want the distributed-statistics CSIO plan", id, s2)
				}
				// The CSIO plan may regionalize to fewer than J workers; the
				// intermediate must still be fully accounted for. Only an
				// undercount is assertable: region schemes legitimately
				// REPLICATE a tuple to every region whose row range holds
				// its key (and the CI fallback to a full grid row), so the
				// delivered total may exceed the match count. Duplicate
				// delivery of one contribution is excluded separately: a
				// receiver refuses a second contribution from one sender, and
				// the coordinator checks each stage-2 reply against the
				// senders' reported counts.
				var in1 int64
				for _, w := range peer.Stages[1].Exec.Workers {
					in1 += w.InputR1
				}
				if in1 < peer.Intermediate {
					t.Errorf("%s: stage-2 workers received %d intermediate tuples, stage 1 matched %d",
						id, in1, peer.Intermediate)
				}
			}
		}
	}
}

func TestCrossCheckSessionMultiwayPeer(t *testing.T) {
	// The peer-shuffle path on uniform keys, across mapper counts: stage-1
	// intermediates re-shuffle directly worker→worker. Asserted here: (1) not
	// a single matched pair transits the coordinator (the session's
	// relayed-pairs counter stays flat); (2) Output and Intermediate are
	// bit-identical to the in-process engine; (3) stage-1 per-worker metrics
	// are bit-identical to in-process. (Skewed inputs have their own
	// crosscheck above; stage-2 blocks against an in-process run of a fixed
	// plan are netexec's TestPeerPipelineMatchesLocalReference.)
	const maxWorkers = 8
	sess := dialLoopbackSession(t, maxWorkers)

	for seed := uint64(700); seed < 703; seed++ {
		rng := stats.NewRNG(seed)
		n := 400 + int(rng.Int64n(600))
		domain := 80 + rng.Int64n(300)
		for _, condB := range []join.Condition{join.Equi{}, join.NewBand(2)} {
			q := multiway.Query{
				R1: netRandKeys(n, domain, seed+1),
				Mid: multiway.MidRelation{
					A: netRandKeys(n, domain, seed+2),
					B: netRandKeys(n, domain, seed+3),
				},
				R3:    netRandKeys(n, domain, seed+4),
				CondA: join.NewBand(1),
				CondB: condB,
			}
			opts := core.Options{J: 5, Model: netModel, Seed: seed + 5}
			for _, mappers := range []int{1, 4} {
				cfg := exec.Config{Seed: seed + 6, Mappers: mappers}
				id := fmt.Sprintf("seed %d condB %v mappers=%d", seed, condB, mappers)

				local, err := multiway.Execute(q, opts, cfg)
				if err != nil {
					t.Fatalf("%s: local: %v", id, err)
				}
				before := sess.RelayedPairs()
				peer, err := multiway.ExecuteOver(sess, q, opts, cfg)
				if err != nil {
					t.Fatalf("%s: peer: %v", id, err)
				}
				if relayed := sess.RelayedPairs() - before; relayed != 0 {
					t.Fatalf("%s: %d intermediate pairs transited the coordinator on the peer path",
						id, relayed)
				}
				if peer.Output != local.Output || peer.Intermediate != local.Intermediate {
					t.Fatalf("%s: results differ: peer (out=%d mid=%d) local (out=%d mid=%d)",
						id, peer.Output, peer.Intermediate, local.Output, local.Intermediate)
				}
				// Stage 1 is the identical shuffle and join on both paths.
				l1, p1 := local.Stages[0].Exec, peer.Stages[0].Exec
				for w := range l1.Workers {
					if p1.Workers[w] != l1.Workers[w] {
						t.Errorf("%s: stage 1 worker %d metrics differ: peer %+v local %+v",
							id, w, p1.Workers[w], l1.Workers[w])
					}
				}
			}
		}
	}
}

func TestCrossCheckOverlappedStage2(t *testing.T) {
	// Stage-overlapped dispatch: the coordinator opens the stage-2 peer jobs
	// and streams their right relation WHILE stage 1 is still running — each
	// transfer completes once every stage-1 sender has contributed. Across
	// worker counts and seeds: the session's overlap counter must move
	// (the pipelining actually engaged, it is not a silent fallback to the
	// sequential open), the output must stay pair-identical to the
	// in-process engine, and not one pair may transit the coordinator.
	for _, workers := range []int{2, 4} {
		sess := dialLoopbackSession(t, workers)
		for seed := uint64(1100); seed < 1103; seed++ {
			rng := stats.NewRNG(seed)
			n := 500 + int(rng.Int64n(500))
			domain := int64(200 + rng.Int64n(400))
			q := multiway.Query{
				R1: workload.Zipfian(n, domain, 0.9, seed+1),
				Mid: multiway.MidRelation{
					A: workload.Zipfian(n, domain, 0.9, seed+2),
					B: workload.Zipfian(n, domain, 1.1, seed+3),
				},
				R3:    workload.Zipfian(n, domain, 0.9, seed+4),
				CondA: join.NewBand(1),
				CondB: join.Equi{},
			}
			opts := core.Options{J: workers, Model: netModel, Seed: seed + 5}
			cfg := exec.Config{Seed: seed + 6, Mappers: 2}

			local, err := multiway.Execute(q, opts, cfg)
			if err != nil {
				t.Fatalf("J=%d seed %d: local: %v", workers, seed, err)
			}
			id := fmt.Sprintf("J=%d seed %d", workers, seed)
			relayedBefore := sess.RelayedPairs()
			overlapBefore := sess.OverlappedStage2()
			res, err := multiway.ExecuteOver(sess, q, opts, cfg)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.Output != local.Output || res.Intermediate != local.Intermediate {
				t.Fatalf("%s: results differ: peer (out=%d mid=%d) local (out=%d mid=%d)",
					id, res.Output, res.Intermediate, local.Output, local.Intermediate)
			}
			if relayed := sess.RelayedPairs() - relayedBefore; relayed != 0 {
				t.Fatalf("%s: %d pairs transited the coordinator", id, relayed)
			}
			if d := sess.OverlappedStage2() - overlapBefore; d <= 0 {
				t.Errorf("%s: no stage-2 stream overlapped stage 1 (counter moved %d)", id, d)
			}
		}
	}
}
