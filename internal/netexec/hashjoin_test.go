package netexec

import (
	"bufio"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// TestSessionHashJoinOverlap is the insert-while-probe crosscheck: an equi
// count job over the chunked session scatter must produce the exact Local
// answer AND prove the worker started building before the job's tail frames
// decoded — BuildOverlappedChunks, the join-side mirror of OverlappedStage2.
func TestSessionHashJoinOverlap(t *testing.T) {
	_, addrs := startWorkerSet(t, 3)
	r1 := zipfKeys(30000, 4000, 0.8, 130)
	r2 := zipfKeys(30000, 4000, 0.8, 131)
	scheme := partition.NewCI(3)
	// Mappers fixed well above the join goroutine's event-channel depth: with
	// ~2×Mappers chunk frames per worker the read loop must block on a full
	// channel before it can decode EOS, so overlap is structural, not a
	// scheduling accident.
	cfg := exec.Config{Seed: 132, Mappers: 12}

	want := exec.Run(r1, r2, join.Equi{}, scheme, model, cfg)

	sess, err := DialTenant(context.Background(), "", addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got, err := exec.RunOver(sess, r1, r2, join.Equi{}, scheme, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output {
		t.Fatalf("session output %d, want %d", got.Output, want.Output)
	}
	if n := sess.BuildOverlappedChunks(); n <= 0 {
		t.Fatalf("BuildOverlappedChunks = %d, want > 0: build never overlapped the stream", n)
	}
	if sess.RelayedPairs() != 0 {
		t.Fatalf("count job relayed %d pairs", sess.RelayedPairs())
	}

	// The other two selections crosscheck against the same answer, and every
	// worker echoes the engine that ran: forcing merge takes the same feed
	// through the merge side.
	for _, e := range []exec.JoinEngine{exec.EngineHash, exec.EngineMerge} {
		cfg := cfg
		cfg.Engine = e
		before := sess.EngineUses(e)
		res, err := exec.RunOver(sess, r1, r2, join.Equi{}, scheme, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != want.Output {
			t.Fatalf("engine %v: output %d, want %d", e, res.Output, want.Output)
		}
		if got := sess.EngineUses(e) - before; got != int64(scheme.Workers()) {
			t.Fatalf("engine %v: %d workers echoed it, want %d", e, got, scheme.Workers())
		}
	}
}

// TestSessionHashJoinBandFallsBack pins engine resolution across the wire: a
// band job under an explicit hash request runs the merge sweep — exact answer,
// every worker echoing merge — on the same chunk feed: relation 1 sorts at its
// tail while relation 2's chunks are still arriving.
func TestSessionHashJoinBandFallsBack(t *testing.T) {
	_, addrs := startWorkerSet(t, 2)
	r1 := zipfKeys(5000, 1000, 0.8, 140)
	r2 := zipfKeys(5000, 1000, 0.8, 141)
	scheme := partition.NewCI(2)
	// Mappers well above the event-channel depth, as in the overlap test.
	cfg := exec.Config{Seed: 142, Engine: exec.EngineHash, Mappers: 12}
	cond := join.NewBand(2)

	want := exec.Run(r1, r2, cond, scheme, model, cfg)
	sess, err := DialTenant(context.Background(), "", addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got, err := exec.RunOver(sess, r1, r2, cond, scheme, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output {
		t.Fatalf("band under hash request: output %d, want %d", got.Output, want.Output)
	}
	if n := sess.EngineUses(exec.EngineMerge); n != int64(scheme.Workers()) || sess.EngineUses(exec.EngineHash) != 0 {
		t.Fatalf("%d workers echoed merge and %d hash, want %d and 0",
			n, sess.EngineUses(exec.EngineHash), scheme.Workers())
	}
	if n := sess.BuildOverlappedChunks(); n <= 0 {
		t.Fatalf("BuildOverlappedChunks = %d, want > 0: the merge side never overlapped the stream", n)
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
	if st := (localjoin.BuildCacheStats{Hits: hits, Misses: misses}); st.HitRate() < 0.5 {
		t.Fatalf("hit rate %.2f below the 2-of-3 sharing expectation (hits=%d misses=%d)",
			st.HitRate(), hits, misses)
	}
}

// TestArrivalOrderJobsRefuseChunks pins the declarations no job kind can take,
// each as a job-level refusal: a chunked relation on a job that joins flat
// blocks in arrival order — pairs to index, a plan's matches to materialize,
// in either frame order — a flat relation 2 on a peer-fed job, whose join
// goroutine takes chunks only, and a PLAN frame carrying the plan or peer map
// only a PLAN2 may (the job would otherwise await a PLAN2 that never comes).
// The job replies its error at EOS, and the connection serves the next job
// intact.
func TestArrivalOrderJobsRefuseChunks(t *testing.T) {
	_, addrs := startWorkerSet(t, 1)
	spec, err := join.SpecOf(join.Equi{})
	if err != nil {
		t.Fatal(err)
	}
	open := func(bw *bufio.Writer, pairs bool) error {
		return writeV3GobFrame(bw, frameV3OpenJob, 1, jobOpen{Cond: spec, WantPairs: pairs})
	}
	plan := func(bw *bufio.Writer) error {
		return writeV3GobFrame(bw, frameV3Plan, 1, planSpec{})
	}
	chunkHead := func(bw *bufio.Writer) error { return writeChunkHead(bw, 1, 1, 2) }
	for _, tc := range []struct {
		name, want string
		frames     func(bw *bufio.Writer) error
	}{
		{"chunk head on a pairs job", "pairs or plan job", func(bw *bufio.Writer) error {
			return errors.Join(open(bw, true), chunkHead(bw))
		}},
		{"chunk head on a plan job", "pairs or plan job", func(bw *bufio.Writer) error {
			return errors.Join(open(bw, false), plan(bw), chunkHead(bw))
		}},
		{"plan on a chunk-fed job", "cannot carry a plan", func(bw *bufio.Writer) error {
			return errors.Join(open(bw, false), chunkHead(bw), plan(bw))
		}},
		{"plan frame carrying a plan", "statistics request", func(bw *bufio.Writer) error {
			return errors.Join(open(bw, false), writeV3GobFrame(bw, frameV3Plan, 1, planSpec{Plan: []byte{1}}))
		}},
		{"plan frame carrying a peer map", "statistics request", func(bw *bufio.Writer) error {
			return errors.Join(open(bw, false), writeV3GobFrame(bw, frameV3Plan, 1, planSpec{Peers: []string{"x"}}))
		}},
		{"flat relation 2 on a peer-fed job", "declared flat", func(bw *bufio.Writer) error {
			return errors.Join(
				writeV3GobFrame(bw, frameV3OpenPeerJob, 1, peerJobOpen{Cond: spec, Token: newPeerToken()}),
				writeRelHead(bw, 1, 2, 1, false), writeKeyBlocksV3(bw, 1, 2, []join.Key{3}))
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
			// The next job on the connection: one key each side, flat.
			sendOpenJob(t, bw, 2, false)
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

// TestPeerStageJobsHonorCoordinatorEngine pins the engine hint on the peer
// open frame. Stage-2 jobs open with frameV3OpenPeerJob, not OPENJOB, so
// before the hint existed they resolved auto no matter what the coordinator
// asked for. An explicit coordinator selection must now reach every sub-job —
// the peer-fed stage-2 jobs included. Merge is the discriminating run: an
// equi job that lost its hint would resolve auto to hash.
func TestPeerStageJobsHonorCoordinatorEngine(t *testing.T) {
	_, addrs := startWorkerSet(t, 3)
	r1 := randKeys(1200, 600, 240)
	r2 := randKeys(1000, 600, 241)
	r3 := randKeys(900, 2000, 242)
	scheme1, err := partition.NewHash(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := statsStagePlan(t, join.Equi{}, 3, 91, nil)
	// Stage 1 fans out scheme1.Workers() plan jobs, the plan fans out three
	// peer-fed stage-2 jobs, and every one of them must report the selected
	// engine back.
	want := int64(scheme1.Workers() + 3)

	var outs [2][2]int64
	for i, e := range []exec.JoinEngine{exec.EngineHash, exec.EngineMerge} {
		sess := dialSession(t, addrs)
		cfg := exec.Config{Seed: 17, Mappers: 2, Engine: e}
		res1, res2, err := exec.RunStagesOver(sess, r1, r2, rekeyOf(r2),
			join.Equi{}, scheme1, sp, r3, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		other := exec.EngineHash + exec.EngineMerge - e
		if n := sess.EngineUses(other); n != 0 {
			t.Fatalf("%d sub-jobs resolved %v under coordinator %v", n, other, e)
		}
		if got := sess.EngineUses(e); got != want {
			t.Fatalf("EngineUses(%v) = %d, want %d (stage-1 + peer stage-2 sub-jobs)", e, got, want)
		}
		outs[i] = [2]int64{res1.Output, res2.Output}
	}
	// Engine selection must not perturb the answer.
	if outs[0] != outs[1] {
		t.Fatalf("engine selection changed outputs: hash %v vs merge %v", outs[0], outs[1])
	}
}

// TestWorkerJoinsTakeTheJobsEngine is the other half of the engine echo: a
// worker reports metrics.Engine from the job's selection, which is true only
// if every join it runs takes that selection too. A stage-1 plan job used to
// call the merge argsort pair join (then exported as exec.JoinPairs) whatever
// was selected, while echoing hash for an equi condition — and the two pair
// streams are bit-identical by design, so no reply can tell them apart. exec
// now exports only selection-taking entry points (JoinPairsEngine, CountOwned,
// JoinEngine.Resident); this pins the other way around them, on the source:
// non-test code of this package calls no engine directly.
func TestWorkerJoinsTakeTheJobsEngine(t *testing.T) {
	engineBlind := map[string]bool{"exec.JoinPairs": true, // as exported when the bug stood
		"localjoin.Count": true, "localjoin.CountSorted": true, "localjoin.NestedLoopCount": true,
		"localjoin.NewBuild": true, "localjoin.NewResident": true, "localjoin.NewPairTable": true}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && engineBlind[x.Name+"."+sel.Sel.Name] {
						t.Errorf("%s joins through %s.%s, which ignores the job's engine selection",
							name, x.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
