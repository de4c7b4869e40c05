package exec_test

// The netexec side of the cross-check harness lives in an external test
// package: netexec imports exec, so the loopback comparison cannot sit in
// package exec itself. It drives the same scheme × condition × mapper-count
// grid as crosscheck_test.go over one session to loopback workers and
// requires the distributed run to be BIT-IDENTICAL to the in-process engine
// — same per-worker input and output counts, same aggregates — since both
// runtimes consume the same exec.ShufflePair blocks.

import (
	"fmt"
	"runtime"
	"testing"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/netexec"
	"ewh/internal/partition"
	"ewh/internal/stats"
)

var netModel = cost.Model{Wi: 1, Wo: 0.2}

func netRandKeys(n int, domain int64, seed uint64) []join.Key {
	r := stats.NewRNG(seed)
	out := make([]join.Key, n)
	for i := range out {
		out[i] = r.Int64n(domain)
	}
	return out
}

func startLoopbackWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w, err := netexec.ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = w.Addr()
		go func() { _ = w.Serve() }()
		t.Cleanup(func() { _ = w.Close() })
	}
	return addrs
}

func TestCrossCheckSessionAgainstExec(t *testing.T) {
	const maxWorkers = 8
	sess := dialLoopbackSession(t, maxWorkers)
	mapperCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	for seed := uint64(300); seed < 303; seed++ {
		rng := stats.NewRNG(seed)
		n1 := 300 + int(rng.Int64n(900))
		n2 := 300 + int(rng.Int64n(900))
		domain := 100 + rng.Int64n(700)
		r1 := netRandKeys(n1, domain, seed+1)
		r2 := netRandKeys(n2, domain, seed+2)

		cases := []struct {
			name     string
			cond     join.Condition
			regioned bool
		}{
			{"equi", join.Equi{}, true},
			{"band", join.NewBand(3), true},
			{"inequality", join.Inequality{Op: join.LessEq}, false},
		}
		for _, tc := range cases {
			want := localjoin.NestedLoopCount(r1, r2, tc.cond)

			opts := core.Options{J: 6, Model: netModel, Seed: seed + 3}
			schemes := []partition.Scheme{}
			if ci, err := core.PlanCI(opts); err == nil {
				schemes = append(schemes, ci.Scheme)
			} else {
				t.Fatal(err)
			}
			if bcast, err := partition.NewBroadcast(5); err == nil {
				schemes = append(schemes, bcast)
			}
			if _, isEqui := tc.cond.(join.Equi); isEqui {
				if h, err := partition.NewHash(7, nil); err == nil {
					schemes = append(schemes, h)
				}
			}
			if tc.regioned {
				csio, err := core.PlanCSIO(r1, r2, tc.cond, opts)
				if err != nil {
					t.Fatalf("seed %d %s: PlanCSIO: %v", seed, tc.name, err)
				}
				csi, err := core.PlanCSI(r1, r2, tc.cond, 64, opts)
				if err != nil {
					t.Fatalf("seed %d %s: PlanCSI: %v", seed, tc.name, err)
				}
				schemes = append(schemes, csio.Scheme, csi.Scheme)
			}

			for _, s := range schemes {
				if s.Workers() > maxWorkers {
					t.Fatalf("scheme %s wants %d workers, pool has %d", s.Name(), s.Workers(), maxWorkers)
				}
				for _, mappers := range mapperCounts {
					cfg := exec.Config{Seed: seed + 4, Mappers: mappers}
					local := exec.Run(r1, r2, tc.cond, s, netModel, cfg)
					net, err := exec.RunOver(sess, r1, r2, tc.cond, s, netModel, cfg)
					id := fmt.Sprintf("seed %d %s/%s mappers=%d", seed, tc.name, s.Name(), mappers)
					if err != nil {
						t.Fatalf("%s: session: %v", id, err)
					}
					if net.Output != want {
						t.Errorf("%s: net output %d, want ground truth %d", id, net.Output, want)
					}
					if net.Output != local.Output || net.NetworkTuples != local.NetworkTuples ||
						net.MaxWork != local.MaxWork || net.TotalWork != local.TotalWork {
						t.Errorf("%s: aggregates differ: net(out=%d net=%d max=%v total=%v) local(out=%d net=%d max=%v total=%v)",
							id, net.Output, net.NetworkTuples, net.MaxWork, net.TotalWork,
							local.Output, local.NetworkTuples, local.MaxWork, local.TotalWork)
					}
					for w := range local.Workers {
						if net.Workers[w] != local.Workers[w] {
							t.Errorf("%s: worker %d metrics differ: net %+v, local %+v",
								id, w, net.Workers[w], local.Workers[w])
						}
					}
				}
			}
		}
	}
}
