package netexec

import (
	"bufio"
	"context"
	"errors"
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

// TestSessionHashJoinOverlap is the chunk-overlap crosscheck for both
// resident forms, each selected by its condition — equi for the hash form,
// band 2 for the merge form: a count job over the chunked session scatter
// must produce the nested-loop answer AND prove the worker started consuming
// chunks before the job's tail frames decoded — BuildOverlappedChunks, the
// join-side mirror of OverlappedStage2. The merge side sorts relation 1 at
// its tail while relation 2's chunks are still arriving.
func TestSessionHashJoinOverlap(t *testing.T) {
	_, addrs := startWorkerSet(t, 3)
	r1 := zipfKeys(6000, 1500, 0.8, 130)
	r2 := zipfKeys(6000, 1500, 0.8, 131)
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
	for _, cond := range []join.Condition{join.Equi{}, join.NewBand(2)} {
		before := sess.BuildOverlappedChunks()
		got, err := exec.RunOver(sess, r1, r2, cond, scheme, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := localjoin.NestedLoopCount(r1, r2, cond); got.Output != want {
			t.Fatalf("%v: session output %d, want %d", cond, got.Output, want)
		}
		if n := sess.BuildOverlappedChunks() - before; n <= 0 {
			t.Fatalf("%v: BuildOverlappedChunks grew by %d, want > 0: the join never overlapped the stream", cond, n)
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
		st := w.BuildCacheStats()
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

// TestArrivalOrderJobsRefuseChunks pins the declarations no job kind can take,
// each as a job-level refusal. The open names no kind; the frames do: a PLAN
// makes a plan job, else relation 1's form decides — so relation 2 must take
// relation 1's. Refused: a chunked relation on a job that joins flat blocks in
// arrival order — pairs to index (relation 1 came flat), a plan's matches to
// materialize, in either frame order — a flat relation 2 behind chunked
// relation 1 or on a peer-fed job, whose join goroutine takes chunks only, a
// PLAN frame carrying the plan or peer map only a PLAN2 may (the job would
// otherwise await a PLAN2 that never comes). The job replies its error at
// EOS, and the connection serves the next job intact.
func TestArrivalOrderJobsRefuseChunks(t *testing.T) {
	_, addrs := startWorkerSet(t, 1)
	spec, err := join.SpecOf(join.Equi{})
	if err != nil {
		t.Fatal(err)
	}
	open := func(bw *bufio.Writer) error {
		return writeV3GobFrame(bw, frameV3OpenJob, 1, jobOpen{Cond: spec})
	}
	plan := func(bw *bufio.Writer) error {
		return writeV3GobFrame(bw, frameV3Plan, 1, planSpec{})
	}
	chunkHead := func(bw *bufio.Writer) error { return writeChunkHead(bw, 1, 1, 2) }
	flat := func(bw *bufio.Writer, rel int8) error {
		return errors.Join(writeRelHead(bw, 1, rel, 1, false), writeKeyBlocksV3(bw, 1, rel, []join.Key{3}))
	}
	for _, tc := range []struct {
		name, want string
		frames     func(bw *bufio.Writer) error
	}{
		{"chunk head on a pairs job", "pairs or plan job", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), flat(bw, 1), writeChunkHead(bw, 1, 2, 2))
		}},
		{"flat relation 2 on a chunk-fed job", "declared flat", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), chunkHead(bw), writeChunkTail(bw, 1, 1, 0), flat(bw, 2))
		}},
		{"chunk head on a plan job", "pairs or plan job", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), plan(bw), chunkHead(bw))
		}},
		{"plan on a chunk-fed job", "cannot carry a plan", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), chunkHead(bw), plan(bw))
		}},
		{"plan frame carrying a plan", "statistics request", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), writeV3GobFrame(bw, frameV3Plan, 1, planSpec{Plan: []byte{1}}))
		}},
		{"plan frame carrying a peer map", "statistics request", func(bw *bufio.Writer) error {
			return errors.Join(open(bw), writeV3GobFrame(bw, frameV3Plan, 1, planSpec{Peers: []string{"x"}}))
		}},
		{"flat relation 2 on a peer-fed job", "declared flat", func(bw *bufio.Writer) error {
			return errors.Join(
				writeV3GobFrame(bw, frameV3OpenPeerJob, 1, peerJobOpen{Cond: spec, Token: newPeerToken(), Senders: 1}),
				flat(bw, 2))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bw, conn := dialV3(t, addrs[0])
			br := bufio.NewReader(conn)
			err := errors.Join(tc.frames(bw), writeV3FrameHeader(bw, frameV3EOS, 1, 0), bw.Flush())
			if err != nil {
				t.Fatal(err)
			}
			if m := awaitFeedMetrics(t, conn, br, 1); !strings.Contains(m.Err, tc.want) {
				t.Fatalf("replied %+v, want a refusal naming %q", m, tc.want)
			}
			// The next job on the connection: a pairs job, one key each side.
			sendOpenJob(t, bw, 2)
			err = errors.Join(
				writeRelHead(bw, 2, 1, 1, false), writeKeyBlocksV3(bw, 2, 1, []join.Key{3}),
				writeRelHead(bw, 2, 2, 1, false), writeKeyBlocksV3(bw, 2, 2, []join.Key{3}),
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
