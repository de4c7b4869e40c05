package netexec

import (
	"context"
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
// decoded — BuildOverlappedChunks, the hash-side mirror of OverlappedStage2.
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

	// The other two selections crosscheck against the same answer; forcing
	// merge must bypass the chunk feed entirely.
	for _, e := range []exec.JoinEngine{exec.EngineHash, exec.EngineMerge} {
		cfg := cfg
		cfg.Engine = e
		res, err := exec.RunOver(sess, r1, r2, join.Equi{}, scheme, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != want.Output {
			t.Fatalf("engine %v: output %d, want %d", e, res.Output, want.Output)
		}
	}
	before := sess.BuildOverlappedChunks()
	cfgMerge := cfg
	cfgMerge.Engine = exec.EngineMerge
	if _, err := exec.RunOver(sess, r1, r2, join.Equi{}, scheme, model, cfgMerge); err != nil {
		t.Fatal(err)
	}
	if after := sess.BuildOverlappedChunks(); after != before {
		t.Fatalf("merge-engine job advanced the overlap counter (%d -> %d)", before, after)
	}
}

// TestSessionHashJoinBandFallsBack pins engine resolution across the wire: a
// band job under an explicit hash request runs the merge sweep (exact
// answer, no chunk feed) instead of failing or mis-counting.
func TestSessionHashJoinBandFallsBack(t *testing.T) {
	_, addrs := startWorkerSet(t, 2)
	r1 := zipfKeys(5000, 1000, 0.8, 140)
	r2 := zipfKeys(5000, 1000, 0.8, 141)
	scheme := partition.NewCI(2)
	cfg := exec.Config{Seed: 142, Engine: exec.EngineHash, Mappers: 4}
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
	if n := sess.BuildOverlappedChunks(); n != 0 {
		t.Fatalf("band job overlapped %d chunks through the hash chunk feed", n)
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

// TestChunkStreamedPairsBitIdentical pins a hand-built chunk-streamed pairs
// job (no driver builds one): its relations assemble from the CHUNK streams
// and it must emit the pair stream bit-identically to the flat path — same
// pairs, same order, same flush (frame) boundaries.
func TestChunkStreamedPairsBitIdentical(t *testing.T) {
	_, addrs := startWorkerSet(t, 2)
	sess, err := DialTenant(context.Background(), "", addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	r1 := zipfKeys(30000, 4000, 0.8, 170)
	r2 := zipfKeys(30000, 4000, 0.8, 171)
	scheme := partition.NewCI(2)
	// The zipf output volume forces several pairChunk flushes per worker.
	cfg := exec.Config{Seed: 172, Mappers: 12, Engine: exec.EngineHash}

	run := func(chunked bool) [][][]exec.PairIdx {
		chunks := make([][][]exec.PairIdx, scheme.Workers())
		job := &exec.Job{Cond: join.Equi{}, Workers: scheme.Workers(), Engine: cfg.Engine,
			// Distinct workers write distinct slice elements; per-worker
			// delivery is sequential, so no locking is needed.
			Pairs: func(w int, chunk []exec.PairIdx) {
				chunks[w] = append(chunks[w], append([]exec.PairIdx(nil), chunk...))
			}}
		if chunked {
			cs1, cs2 := exec.ShufflePairChunked(r1, r2, scheme, cfg)
			job.R1 = exec.ResolvedRelFuture(exec.RelData{Chunks: cs1})
			job.R2 = exec.ResolvedRelFuture(exec.RelData{Chunks: cs2})
		} else {
			s1, s2 := exec.ShufflePair(r1, r2, scheme, cfg)
			defer s1.Release()
			defer s2.Release()
			job.R1 = exec.ResolvedRelFuture(exec.RelData{Keys: s1})
			job.R2 = exec.ResolvedRelFuture(exec.RelData{Keys: s2})
		}
		wm := make([]exec.WorkerMetrics, scheme.Workers())
		if err := sess.RunJob(job, wm); err != nil {
			t.Fatal(err)
		}
		return chunks
	}

	flat := run(false)
	streamed := run(true)
	for w := range flat {
		if len(flat[w]) < 2 {
			t.Fatalf("worker %d emitted %d flush chunks; need several to pin boundaries", w, len(flat[w]))
		}
		if len(streamed[w]) != len(flat[w]) {
			t.Fatalf("worker %d: %d flush chunks streamed, flat path emitted %d",
				w, len(streamed[w]), len(flat[w]))
		}
		for c := range flat[w] {
			if len(streamed[w][c]) != len(flat[w][c]) {
				t.Fatalf("worker %d chunk %d: %d pairs streamed, flat %d — flush boundary moved",
					w, c, len(streamed[w][c]), len(flat[w][c]))
			}
			for i := range flat[w][c] {
				if streamed[w][c][i] != flat[w][c][i] {
					t.Fatalf("worker %d chunk %d pair %d: streamed %+v, flat %+v",
						w, c, i, streamed[w][c][i], flat[w][c][i])
				}
			}
		}
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
	sp := stagePlanFor(t, join.Equi{}, 3, 91)
	// Stage 1 fans out scheme1.Workers() plan jobs, the plan fans out
	// sp.Scheme.Workers() peer-fed stage-2 jobs, and every one of them must
	// report the selected engine back.
	want := int64(scheme1.Workers() + sp.Scheme.Workers())

	var outs [2][2]int64
	for i, e := range []exec.JoinEngine{exec.EngineHash, exec.EngineMerge} {
		sess := dialSession(t, addrs)
		cfg := exec.Config{Seed: 17, Mappers: 2, Engine: e}
		res1, res2, err := exec.RunStagesOver(sess, exec.WrapKeys(r1), tuplesWithPayloadKeys(r2),
			join.Equi{}, scheme1, sp, r3, model, cfg, nil, encodeKeyLE8)
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
