package localjoin

import (
	"runtime"
	"sync"
	"testing"

	"ewh/internal/join"
)

func TestDigestCombineMatchesChunkStructure(t *testing.T) {
	keys := randKeys(1000, 50, 80)
	whole := digestKeys(keys)
	if again := digestKeys(keys); again != whole {
		t.Fatal("the one-chunk build key is not deterministic")
	}
	// Same content, same chunk structure: identical key.
	split := digestKeys(keys[:400]).plus(digestKeys(keys[400:]))
	if again := digestKeys(keys[:400]).plus(digestKeys(keys[400:])); again != split {
		t.Fatal("plus is not deterministic")
	}
	// Different content must (overwhelmingly) key differently.
	other := append([]join.Key(nil), keys...)
	other[500]++
	if digestKeys(other) == whole {
		t.Fatal("distinct content produced the same buildKey")
	}
	// The fold is order-free: the same chunks arriving in another order are
	// the same key→multiplicity table.
	if swapped := digestKeys(keys[400:]).plus(digestKeys(keys[:400])); swapped != split {
		t.Fatal("chunk arrival order changed the folded key")
	}
	// Another chunking of the same content keys differently: a false miss,
	// never a false hit.
	resplit := digestKeys(keys[:600]).plus(digestKeys(keys[600:]))
	if resplit == split || split == whole {
		t.Fatal("a different chunking of the same content keyed identically")
	}
	if got := split.N; got != int64(len(keys)) {
		t.Fatalf("folded N = %d, want %d", got, len(keys))
	}
}

// sealedWindow is a dense window of keys, which must fit one.
func sealedWindow(keys []join.Key) *denseWindow {
	d := sealChunks(nil, join.Equi{}, keys, 0).dense
	if d == nil {
		panic("the keys are past the dense window's budget")
	}
	return d
}

func TestBuildCacheHitMissEvict(t *testing.T) {
	r1 := randKeys(2000, 100, 81)
	b1 := sealedWindow(r1)
	c := NewBuildCache(4 * b1.MemBytes())

	k1 := digestKeys(r1)
	if cacheGet[*denseWindow](c, cacheKey{k1, Dense}) != nil {
		t.Fatal("empty cache returned a build")
	}
	if got := cacheAdd(c, cacheKey{k1, Dense}, b1); got != b1 {
		t.Fatal("first Add did not return the added build")
	}
	if cacheGet[*denseWindow](c, cacheKey{k1, Dense}) != b1 {
		t.Fatal("Get missed a just-added entry")
	}
	// A racing Add of the same content yields the canonical first entry.
	if got := cacheAdd(c, cacheKey{k1, Dense}, sealedWindow(r1)); got != b1 {
		t.Fatal("duplicate Add did not return the canonical build")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// Fill past the byte cap: the LRU tail (k1, untouched below) evicts.
	var keys []buildKey
	for i := 0; i < 6; i++ {
		r := randKeys(2000, 100, 90+uint64(i))
		k := digestKeys(r)
		keys = append(keys, k)
		cacheAdd(c, cacheKey{k, Dense}, sealedWindow(r))
	}
	st = c.Stats()
	if st.Bytes > 4*b1.MemBytes() {
		t.Fatalf("cache holds %d bytes, cap %d", st.Bytes, 4*b1.MemBytes())
	}
	if cacheGet[*denseWindow](c, cacheKey{k1, Dense}) != nil {
		t.Fatal("LRU tail survived eviction")
	}
	if cacheGet[*denseWindow](c, cacheKey{keys[len(keys)-1], Dense}) == nil {
		t.Fatal("most recent entry was evicted")
	}
}

func TestBuildCacheOversizedAndNil(t *testing.T) {
	r := randKeys(5000, 1000, 85)
	b := sealedWindow(r)
	c := NewBuildCache(b.MemBytes() / 2)
	k := digestKeys(r)
	if got := cacheAdd(c, cacheKey{k, Dense}, b); got != b {
		t.Fatal("oversized Add did not pass the build through")
	}
	if cacheGet[*denseWindow](c, cacheKey{k, Dense}) != nil || c.Stats().Entries != 0 {
		t.Fatal("oversized build was admitted")
	}

	// A nil cache is the valid always-miss degenerate (cache disabled).
	var nc *BuildCache
	if nc != NewBuildCache(0) {
		t.Fatal("NewBuildCache(0) should return nil")
	}
	if cacheGet[*denseWindow](nc, cacheKey{k, Dense}) != nil {
		t.Fatal("nil cache returned a build")
	}
	if cacheAdd(nc, cacheKey{k, Dense}, b) != b {
		t.Fatal("nil cache Add did not pass through")
	}
	if nc.Stats() != (BuildCacheStats{}) {
		t.Fatal("nil cache stats not zero")
	}
}

// TestBuildCacheSharedProbes pins the sharing contract end to end: two "jobs"
// over the same relation content resolve to one dense window, and both count
// correctly through it.
func TestBuildCacheSharedProbes(t *testing.T) {
	r1 := dupHeavyKeys(3000, 86)
	probeA := dupHeavyKeys(1000, 87)
	probeB := dupHeavyKeys(1000, 88)
	wantA := NestedLoopCount(r1, probeA, join.Equi{})
	wantB := NestedLoopCount(r1, probeB, join.Equi{})

	c := NewBuildCache(1 << 20)
	// Job A: miss, build, publish.
	k := digestKeys(r1)
	bA := cacheGet[*denseWindow](c, cacheKey{k, Dense})
	if bA != nil {
		t.Fatal("unexpected hit")
	}
	bA = cacheAdd(c, cacheKey{k, Dense}, sealedWindow(r1))
	if got := bA.probe(probeA); got != wantA {
		t.Fatalf("job A count = %d, want %d", got, wantA)
	}
	// Job B: same content (chunked differently upstream doesn't matter here —
	// same flat digest), hit, probe the shared build.
	bB := cacheGet[*denseWindow](c, cacheKey{digestKeys(append([]join.Key(nil), r1...)), Dense})
	if bB != bA {
		t.Fatal("job B did not hit job A's build")
	}
	if got := bB.probe(probeB); got != wantB {
		t.Fatalf("job B count = %d, want %d", got, wantB)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want exactly 1 hit", st)
	}
}

// TestBuildCacheConcurrentProbes is the race proof for the one place a sealed
// side crosses goroutines: one job inserts, seals and publishes it through
// the cache while other jobs spin on Get and probe it the moment it appears,
// over a dense window, one whose chunks are each too sparse for it alone, and
// a rank table. The cache's lock is
// the only synchronization between them, and every count must match the
// oracle.
func TestBuildCacheConcurrentProbes(t *testing.T) {
	probe := append(dupHeavyKeys(500, 64), randKeys(500, 30_000, 63)...)
	for _, rel := range []struct {
		name string
		cond join.Condition
		keys []join.Key
	}{
		{"dense", join.Equi{}, dupHeavyKeys(4000, 60)},
		{"dense, kept chunks", join.Equi{}, randKeys(4000, 30_000, 61)}, // 117 slots a key per chunk, 7.5 in all
		{"table", join.NewBand(2), randKeys(4000, 30_000, 62)},
	} {
		if form := sealedForm(sealChunks(nil, rel.cond, rel.keys, 256)); form == Merge {
			t.Fatalf("%s: the side seals into the %s form, which the cache never holds", rel.name, form)
		}
		want := NestedLoopCount(rel.keys, probe, rel.cond)
		c := NewBuildCache(1 << 24)
		var k buildKey
		for _, ch := range chunked(rel.keys, 256) {
			k = k.plus(digestKeys(ch))
		}
		counts := make([]int64, 4)
		var wg sync.WaitGroup
		for g := range counts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if d := cacheGet[*denseWindow](c, cacheKey{k, Dense}); d != nil {
						counts[g] = d.probe(probe)
						return
					}
					if tbl := cacheGet[*rankTable](c, cacheKey{k, Table}); tbl != nil {
						counts[g] = tbl.probeCount(probe, rel.cond, true)
						return
					}
					runtime.Gosched()
				}
			}()
		}
		sealChunks(c, rel.cond, rel.keys, 256)
		wg.Wait()
		for g, got := range counts {
			if got != want {
				t.Errorf("%s: prober %d counted %d, want %d", rel.name, g, got, want)
			}
		}
	}
}

// sealChunks seals keys, streamed in chunks of size, as a resident relation 1
// under cond through c, which keys it by the digests of those chunks.
func sealChunks(c *BuildCache, cond join.Condition, keys []join.Key, size int) *Resident {
	r := NewResident(cond, true, c, nil)
	for _, ch := range pooledChunks(keys, size) {
		r.Insert(ch)
	}
	r.Seal()
	return r
}

// TestBuildCacheTableProbedWhileEvicted is the rank table's sharing contract:
// jobs over the same content seal into the one cached table, and keep
// probing it while later tables evict it; each count matches the oracle.
// Under -race it proves that a hit neither writes the shared table nor needs
// it to outlive its entry.
func TestBuildCacheTableProbedWhileEvicted(t *testing.T) {
	cond := join.NewBand(3)
	r1 := randKeys(4000, 8000, 70) // 2 slots a key: the table form
	probe := randKeys(1000, 8000, 71)
	want := NestedLoopCount(r1, probe, cond)

	own := sealChunks(nil, cond, r1, 512).table
	if own == nil {
		t.Fatal("the dense band side did not seal into a table")
	}
	c := NewBuildCache(3 * own.MemBytes() / 2) // room for one such table, not two
	first := sealChunks(c, cond, r1, 512).table
	const probers = 4
	counts := make([]int64, probers)
	var hit, done sync.WaitGroup
	evicted := make(chan struct{})
	hit.Add(probers)
	for g := range counts {
		done.Add(1)
		go func() {
			defer done.Done()
			r := sealChunks(c, cond, r1, 512)
			if r.table != first {
				t.Errorf("prober %d sealed its own table, not the cached one", g)
			}
			hit.Done()
			for {
				n := r.Finish(chunked(probe, 128)...)
				counts[g] = n
				select {
				case <-evicted:
					return
				default:
				}
				if n != want {
					return
				}
			}
		}()
	}
	hit.Wait()
	for i := range 3 {
		sealChunks(c, cond, randKeys(4000, 8000, 72+uint64(i)), 512)
	}
	close(evicted)
	done.Wait()
	for g, got := range counts {
		if got != want {
			t.Errorf("prober %d counted %d, want %d", g, got, want)
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Hits != probers {
		t.Fatalf("cache %+v, want 1 entry left and %d hits", st, probers)
	}
	if sealChunks(c, cond, r1, 512).table == first {
		t.Fatal("the evicted table was still served")
	}
}

// TestBuildCacheKeysByForm caches a dense window and a rank table over the
// same content: each is found under its own form, and neither replaces the
// other. An equi side sealed past the dense budget, the sorted block, neither
// looks in the cache nor publishes to it.
func TestBuildCacheKeysByForm(t *testing.T) {
	keys := randKeys(2000, 2000, 76)
	k := digestKeys(keys)
	c := NewBuildCache(1 << 20)
	d := cacheAdd(c, cacheKey{k, Dense}, sealedWindow(keys))
	if got := cacheGet[*rankTable](c, cacheKey{k, Table}); got != nil {
		t.Fatal("a dense window's content key served a rank table")
	}
	tbl := sealChunks(nil, join.NewBand(1), keys, 0).table
	if got := cacheAdd(c, cacheKey{k, Table}, tbl); got != tbl {
		t.Fatal("the table was not admitted beside the window of the same content")
	}
	if cacheGet[*denseWindow](c, cacheKey{k, Dense}) != d || cacheGet[*rankTable](c, cacheKey{k, Table}) != tbl {
		t.Fatal("one form shadowed the other")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != d.MemBytes()+tbl.MemBytes() {
		t.Fatalf("cache %+v, want both entries and their bytes", st)
	}
	wide := sparseKeys(2000, 77)
	for range 2 {
		if form := sealedForm(sealChunks(c, join.Equi{}, wide, 500)); form != Merge {
			t.Fatalf("an equi side past the dense budget sealed into the %s form", form)
		}
	}
	if got := c.Stats(); got != st {
		t.Fatalf("two equi sides past the dense budget moved the cache from %+v to %+v", st, got)
	}
}

// streamedDense is 40,000 keys over a span of 20,000, streamed in chunks of
// 10,000: each chunk alone is dense, and the span's ends are in the last.
func streamedDense() (keys []join.Key, chunk int) {
	keys = randKeys(40_000, 20_000, 78)
	keys[len(keys)-2], keys[len(keys)-1] = 0, 20_000
	return keys, 10_000
}

// TestBuildCacheHitBuildsNothing streams a dense side whose content the cache
// already holds: it seals into the cached window without allocating one of its
// own, so an op costs the side's bookkeeping, not the window's 80 kB.
func TestBuildCacheHitBuildsNothing(t *testing.T) {
	keys, chunk := streamedDense()
	c := NewBuildCache(1 << 24)
	cached := sealChunks(c, join.Equi{}, keys, chunk).dense
	if cached == nil {
		t.Fatal("the side did not seal into a dense window")
	}
	const ops = 20
	streams := make([][][]join.Key, ops)
	for i := range streams {
		streams[i] = pooledChunks(keys, chunk)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, chunks := range streams {
		r := NewResident(join.Equi{}, true, c, nil)
		for _, ch := range chunks {
			r.Insert(ch)
		}
		r.Seal()
		if r.dense != cached {
			t.Fatal("the side did not seal into the cached window")
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / ops; perOp > 4<<10 {
		t.Fatalf("a cache hit allocated %d B an op, want at most 4 KiB", perOp)
	}
}

// TestBuildCacheChargesTheExactSpan streams a dense side through the cache:
// the window it publishes, and the bytes the cache charges for it, are 4 B a
// slot of the side's span, with no slack.
func TestBuildCacheChargesTheExactSpan(t *testing.T) {
	keys, chunk := streamedDense()
	c := NewBuildCache(1 << 24)
	if sealChunks(c, join.Equi{}, keys, chunk).dense == nil {
		t.Fatal("the side did not seal into a dense window")
	}
	if got, want := c.Stats().Bytes, 4*(int64(spanOf(keys))+1); got != want {
		t.Fatalf("the cache charges %d B for the window, want %d", got, want)
	}
}
