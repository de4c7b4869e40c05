package netexec

import (
	"context"
	"slices"
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
// resident forms, each selected by its condition and keys — equi over dense
// keys for the dense window, band 2 over them for the rank table, and equi and
// band 64 over keys spread 64 slots apart for the merge form: a count job over
// the chunked session scatter must produce the nested-loop answer AND prove
// the worker started consuming chunks before the job's tail frames decoded —
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
		{join.Equi{}, wide1, wide2},
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

// TestPoolBuildCacheHit is the shared-side acceptance test: two tenants of
// one pool join different probe relations against the SAME relation 1, under
// an equi condition (a dense window), a band and an inequality (rank tables);
// the second tenant's count jobs must each hit the first tenant's cached side
// on every worker (identical content, identical chunk structure under the
// shared seed), a repeat of the first tenant's job too, and every answer stays
// bit-exact. leakCheck (in startWorkerSet) pins that no join goroutine
// outlives its job.
func TestPoolBuildCacheHit(t *testing.T) {
	ws, addrs := startWorkerSet(t, 2)
	scheme := partition.NewCI(2)
	cfg := exec.Config{Seed: 153, Mappers: 8}

	pool, err := NewPool(addrs, Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	hits := func() []int64 {
		out := make([]int64, len(ws))
		for i, w := range ws {
			out[i] = w.Snapshot().Cache.Hits
		}
		return out
	}

	for i, cond := range []join.Condition{join.Equi{}, join.NewBand(2), join.Inequality{Op: join.Less}} {
		seed := 150 + 10*uint64(i)
		dim := zipfKeys(20000, 3000, 0.7, seed) // shared relation 1, dense enough for a table
		probeA := zipfKeys(8000, 3000, 0.7, seed+1)
		probeB := zipfKeys(8000, 3000, 0.7, seed+2)
		run := func(tenant string, probe []join.Key) int64 {
			t.Helper()
			s, err := pool.Session(context.Background(), tenant)
			if err != nil {
				t.Fatal(err)
			}
			res, err := exec.RunOver(s, dim, probe, cond, scheme, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Output
		}
		gotA := run("alpha", probeA)
		first := hits()
		gotB := run("beta", probeB)
		// A repeat of tenant alpha's exact job must also hit and agree.
		again := run("alpha", probeA)
		wantA := exec.Run(dim, probeA, cond, scheme, model, cfg).Output
		wantB := exec.Run(dim, probeB, cond, scheme, model, cfg).Output
		if gotA != wantA || gotB != wantB || again != wantA {
			t.Fatalf("%v: outputs (%d, %d, %d), want (%d, %d, %d)", cond, gotA, gotB, again, wantA, wantB, wantA)
		}
		for w, h := range hits() {
			if h-first[w] != 2 {
				t.Errorf("%v: worker %d hit its cache %d times in the two jobs after the first, want 2", cond, w, h-first[w])
			}
		}
	}
	for _, w := range ws {
		// One entry per condition's relation 1 on each worker, each missed once.
		if st := w.Snapshot().Cache; st.Entries != 3 || st.Misses != 3 || st.Bytes <= 0 {
			t.Errorf("worker %s cache %+v, want 3 entries from 3 misses", w.Addr(), st)
		}
	}
}

// TestBuildCacheKeepsFormsApart runs an equi and a band count job over the
// same relation 1, each twice in turn, on one worker: the dense window and the
// rank table over the same content are two entries, and each repeat hits its
// own. A content-only key would hand one form the other's side.
func TestBuildCacheKeepsFormsApart(t *testing.T) {
	ws, addrs := startWorkerSet(t, 1)
	dim, probe := zipfKeys(6000, 1500, 0.8, 170), zipfKeys(6000, 1500, 0.8, 171)
	scheme := partition.NewCI(1)
	cfg := exec.Config{Seed: 172, Mappers: 4}
	sess := dialSession(t, addrs)
	for range 2 {
		for _, cond := range []join.Condition{join.Equi{}, join.NewBand(2)} {
			got, err := exec.RunOver(sess, dim, probe, cond, scheme, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := localjoin.Count(dim, probe, cond); got.Output != want {
				t.Fatalf("%v: session output %d, want %d", cond, got.Output, want)
			}
		}
	}
	if st := ws[0].Snapshot().Cache; st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("an equi and a band job over one relation, twice each: cache %+v, want 2 hits, 2 misses, 2 entries", st)
	}
}

// TestBuildCacheKeysHeldChunks runs two equi count jobs on one worker whose
// relation 1 shares its first mapper's chunk and differs in the second's.
// Either chunk alone spans about 10 slots a key, past the dense window's
// budget; the side keeps both until the seal, where the whole block (5 slots
// a key) counts into the window: the content key must digest every kept
// chunk, or the second job would probe the first one's cached window.
func TestBuildCacheKeysHeldChunks(t *testing.T) {
	ws, addrs := startWorkerSet(t, 1)
	shared := randKeys(1000, 10_000, 160)
	held1, held2 := randKeys(1000, 10_000, 161), randKeys(1000, 10_000, 162)
	probe := append(randKeys(2000, 10_000, 163), held1...)
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
