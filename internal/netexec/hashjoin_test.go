package netexec

import (
	"bufio"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
	"ewh/internal/workload"
)

// zipfKeys draws the Zipf-skewed workloads the hash-engine tests use.
func zipfKeys(n int, domain int64, z float64, seed uint64) []join.Key {
	return workload.Zipfian(n, domain, z, seed)
}

// TestSessionHashJoinOverlap is the chunk-overlap crosscheck for all three
// resident forms, each selected by its condition and keys — equi for the hash
// form, band 2 over dense keys for the rank table, band 64 over keys spread 64
// slots apart for the merge form: a count job over the chunked session
// scatter must produce the nested-loop answer AND prove the worker started
// consuming chunks before the job's tail frames decoded —
// BuildOverlappedChunks, the join-side mirror of OverlappedStage2. The table
// and merge sides seal relation 1 at its tail while relation 2's chunks are
// still arriving; the merge side holds those chunks to relation 2's tail.
func TestSessionHashJoinOverlap(t *testing.T) {
	_, addrs := startWorkerSet(t, 3)
	dense1, dense2 := zipfKeys(6000, 1500, 0.8, 130), zipfKeys(6000, 1500, 0.8, 131)
	wide1, wide2 := randKeys(6000, 64*6000, 133), randKeys(6000, 64*6000, 134)
	scheme := partition.NewCI(3)
	// Mappers fixed well above the join goroutine's event-channel depth: with
	// ~2×Mappers chunk frames per worker the read loop must block on a full
	// channel before it can decode EOS, so overlap is structural, not a
	// scheduling accident.
	cfg := exec.Config{Seed: 132, Mappers: 12}

	sess, err := DialTenant(context.Background(), "", addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, c := range []struct {
		cond   join.Condition
		r1, r2 []join.Key
	}{
		{join.Equi{}, dense1, dense2},
		{join.NewBand(2), dense1, dense2},
		{join.NewBand(64), wide1, wide2},
	} {
		before := sess.BuildOverlappedChunks()
		got, err := exec.RunOver(sess, c.r1, c.r2, c.cond, scheme, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := localjoin.NestedLoopCount(c.r1, c.r2, c.cond); got.Output != want {
			t.Fatalf("%v: session output %d, want %d", c.cond, got.Output, want)
		}
		if n := sess.BuildOverlappedChunks() - before; n <= 0 {
			t.Fatalf("%v: BuildOverlappedChunks grew by %d, want > 0: the join never overlapped the stream", c.cond, n)
		}
	}
	if sess.RelayedPairs() != 0 {
		t.Fatalf("count jobs relayed %d pairs", sess.RelayedPairs())
	}
}

// TestPoolBuildCacheHit is the shared-build acceptance test: two tenants of
// one pool join different probe relations against the SAME build-side
// relation; the second tenant's jobs must hit the first tenant's cached
// builds (identical content, identical chunk structure under the shared
// seed) and both answers stay bit-exact. leakCheck (in startWorkerSet) pins
// that no join goroutine outlives its job.
func TestPoolBuildCacheHit(t *testing.T) {
	ws, addrs := startWorkerSet(t, 2)
	dim := zipfKeys(20000, 3000, 0.7, 150) // shared build side
	probeA := zipfKeys(8000, 3000, 0.7, 151)
	probeB := zipfKeys(8000, 3000, 0.7, 152)
	scheme := partition.NewCI(2)
	cfg := exec.Config{Seed: 153, Mappers: 8}

	pool, err := NewPool(addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	run := func(tenant string, probe []join.Key) int64 {
		t.Helper()
		s, err := pool.Session(context.Background(), tenant)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.RunOver(s, dim, probe, join.Equi{}, scheme, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Output
	}

	gotA := run("alpha", probeA)
	gotB := run("beta", probeB)
	// A repeat of tenant alpha's exact job must also hit and agree.
	if again := run("alpha", probeA); again != gotA {
		t.Fatalf("cache-hit rerun output %d, want %d", again, gotA)
	}

	wantA := exec.Run(dim, probeA, join.Equi{}, scheme, model, cfg).Output
	wantB := exec.Run(dim, probeB, join.Equi{}, scheme, model, cfg).Output
	if gotA != wantA || gotB != wantB {
		t.Fatalf("outputs (%d, %d), want (%d, %d)", gotA, gotB, wantA, wantB)
	}

	var hits, misses int64
	for _, w := range ws {
		st := w.Snapshot().Cache
		hits += st.Hits
		misses += st.Misses
		if st.Bytes <= 0 || st.Entries <= 0 {
			t.Errorf("worker %s cache holds %d entries / %d bytes after hash jobs",
				w.Addr(), st.Entries, st.Bytes)
		}
	}
	// Three jobs per worker over identical build content: the first misses,
	// the other two share its build.
	if hits <= 0 {
		t.Fatalf("no build-cache hits across the fleet (hits=%d misses=%d)", hits, misses)
	}
	if hits < misses {
		t.Fatalf("hit rate below the 2-of-3 sharing expectation (hits=%d misses=%d)", hits, misses)
	}
}

// TestBuildCacheKeysHeldChunks runs two equi count jobs on one worker whose
// relation 1 shares its first mapper's chunk and differs in the second's. The
// second chunk stretches the dense build past its bound, so the side holds it
// until the seal: the content key must digest it all the same, or the second
// job would probe the first one's cached build.
func TestBuildCacheKeysHeldChunks(t *testing.T) {
	ws, addrs := startWorkerSet(t, 1)
	shared := randKeys(1000, 1000, 160)
	held1, held2 := randKeys(1000, 20_000, 161), randKeys(1000, 20_000, 162)
	probe := append(randKeys(2000, 20_000, 163), held1...)
	scheme := partition.NewCI(1)
	cfg := exec.Config{Seed: 164, Mappers: 2}
	sess := dialSession(t, addrs)
	for _, held := range [][]join.Key{held1, held2} {
		dim := append(slices.Clone(shared), held...)
		got, err := exec.RunOver(sess, dim, probe, join.Equi{}, scheme, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := localjoin.Count(dim, probe, join.Equi{}); got.Output != want {
			t.Fatalf("session output %d, want %d", got.Output, want)
		}
	}
	if st := ws[0].Snapshot().Cache; st.Hits != 0 || st.Entries != 2 {
		t.Fatalf("two distinct build sides: %d cache hits, %d entries, want 0 and 2", st.Hits, st.Entries)
	}
}

// TestArrivalOrderJobsRefuseChunks pins the frames no job kind can take,
// each as a job-level refusal. Every kind rides base and window runs at epoch
// 0: relation 1 the base, relation 2 window 0 and a plan job's re-key column
// window 1; the open's kind fixes which job it is. Refused: window 1 on any
// job but a plan job, a run past epoch 0, a frame after its run's end, a
// window ahead of a count job's sealed base, a window on a peer-fed job (its
// probe is the transfer) or on a contribution (its share is its base), and a
// plan or contribution open naming a sender no transfer may have. The job
// replies its error at EOS: each refused frame was consumed exactly, so the
// connection serves the next job intact.
func TestArrivalOrderJobsRefuseChunks(t *testing.T) {
	_, addrs := startWorkerSet(t, 1)
	spec, err := join.SpecOf(join.Equi{})
	if err != nil {
		t.Fatal(err)
	}
	openKind := func(kind byte, cond join.Spec) func(bw *bufio.Writer) error {
		return func(bw *bufio.Writer) error {
			return writeCtl(bw, frameV3Open, 1, &open{Kind: kind, Cond: cond, Token: newPeerToken(), Senders: 1})
		}
	}
	openSender := func(kind byte, sender int) func(bw *bufio.Writer) error {
		return func(bw *bufio.Writer) error {
			return writeCtl(bw, frameV3Open, 1, &open{Kind: kind, WorkerID: sender, Cond: spec, Token: newPeerToken()})
		}
	}
	open, openPairs, openPeer := openKind(kindCount, spec), openKind(kindPairs, spec), openKind(kindPeer, spec)
	base := func(bw *bufio.Writer) error { return writeStreamBaseKeys(bw, 1, 0, []join.Key{3}) }
	baseRun := func(bw *bufio.Writer) error { return errors.Join(base(bw), writeStreamBaseEnd(bw, 1, 0, 1)) }
	win := func(bw *bufio.Writer) error { return writeStreamWinKeys(bw, 1, 0, 0, []join.Key{3}) }
	nosuch := join.Spec{Kind: "nosuch"}
	for _, tc := range []struct {
		name, want string
		frames     func(bw *bufio.Writer) error
	}{
		{"window 1 on a pairs job", "past epoch 0, window 0", func(bw *bufio.Writer) error {
			return errors.Join(openPairs(bw), baseRun(bw), writeStreamWinKeys(bw, 1, 1, 0, []join.Key{3}))
		}},
		{"frame after its run's end on a pairs job", "after its run's end frame", func(bw *bufio.Writer) error {
			return errors.Join(openPairs(bw), baseRun(bw), base(bw))
		}},
		{"plan job's run past epoch 0", "past epoch 0, window 1", func(bw *bufio.Writer) error {
			return errors.Join(openKind(kindPlan, spec)(bw), writeStreamBaseKeys(bw, 1, 1, []join.Key{3}))
		}},
		{"window ahead of the base", "ahead of any sealed base", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), win(bw))
		}},
		{"base past epoch 0", "past epoch 0, window 0", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), writeStreamBaseKeys(bw, 1, 1, []join.Key{3}))
		}},
		{"base end past epoch 0", "past epoch 0, window 0", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), base(bw), writeStreamBaseEnd(bw, 1, 1, 1))
		}},
		{"window past window 0", "past epoch 0, window 0", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), baseRun(bw), writeStreamWinKeys(bw, 1, 1, 0, []join.Key{3}))
		}},
		{"window end past epoch 0", "past epoch 0, window 0", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), baseRun(bw), writeStreamWinEnd(bw, 1, 0, 1, 0))
		}},
		{"base frame after its end", "after its run's end frame", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), baseRun(bw), base(bw))
		}},
		{"window end after its end", "after its run's end frame", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), baseRun(bw), writeStreamWinEnd(bw, 1, 0, 0, 0), writeStreamWinEnd(bw, 1, 0, 0, 0))
		}},
		{"window on a peer-fed job", "on a peer-fed job", func(bw *bufio.Writer) error {
			return errors.Join(openPeer(bw), baseRun(bw), win(bw))
		}},
		{"window end on a peer-fed job", "on a peer-fed job", func(bw *bufio.Writer) error {
			return errors.Join(openPeer(bw), baseRun(bw), writeStreamWinEnd(bw, 1, 0, 0, 0))
		}},
		{"base past epoch 0 on a peer-fed job", "past epoch 0, window 0", func(bw *bufio.Writer) error {
			return errors.Join(openPeer(bw), writeStreamBaseKeys(bw, 1, 2, []join.Key{3}))
		}},
		{"window on a contribution", "on a contribution", func(bw *bufio.Writer) error {
			return errors.Join(openSender(kindContrib, 0)(bw), baseRun(bw), win(bw))
		}},
		// A job dead on arrival: its goroutine starts poisoned at the open.
		// A plan job's sender id becomes its contributions' sender, which
		// no transfer may have past maxPeerSenders.
		{"plan job naming a sender past the bound", "names sender 4096", func(bw *bufio.Writer) error {
			return errors.Join(openSender(kindPlan, maxPeerSenders)(bw), baseRun(bw))
		}},
		{"contribution naming a sender past the bound", "names sender 4096", func(bw *bufio.Writer) error {
			return errors.Join(openSender(kindContrib, maxPeerSenders)(bw), baseRun(bw))
		}},
		{"unknown condition on a count job", "unknown", func(bw *bufio.Writer) error {
			return errors.Join(openKind(kindCount, nosuch)(bw), baseRun(bw))
		}},
		{"unknown condition on a pairs job", "unknown", func(bw *bufio.Writer) error {
			return errors.Join(openKind(kindPairs, nosuch)(bw), baseRun(bw))
		}},
		{"unknown condition on a peer-fed job", "unknown", func(bw *bufio.Writer) error {
			return errors.Join(openKind(kindPeer, nosuch)(bw), baseRun(bw))
		}},
		{"unknown condition on a stream", "unknown", func(bw *bufio.Writer) error {
			return errors.Join(openKind(kindStream, nosuch)(bw), baseRun(bw))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bw, conn := dialV3(t, addrs[0], "")
			br := bufio.NewReader(conn)
			err := errors.Join(tc.frames(bw), writeV3FrameHeader(bw, frameV3EOS, 1, 0), bw.Flush())
			if err != nil {
				t.Fatal(err)
			}
			if m := awaitFeedMetrics(t, conn, br, 1); !strings.Contains(m.Err, tc.want) {
				t.Fatalf("replied %+v, want a refusal naming %q", m, tc.want)
			}
			// The next job on the connection: a pairs job, one key each side.
			sendOpenJob(t, bw, 2, kindPairs, 0)
			err = errors.Join(
				writeRel(bw, 2, 1, []join.Key{3}),
				writeRel(bw, 2, 2, []join.Key{3}),
				writeV3FrameHeader(bw, frameV3EOS, 2, 0), bw.Flush())
			if err != nil {
				t.Fatal(err)
			}
			if m := awaitFeedMetrics(t, conn, br, 2); m.Err != "" || m.Output != 1 {
				t.Fatalf("the job after the refusal replied %+v", m)
			}
		})
	}
}
