package localjoin

import (
	"runtime"
	"sync"
	"testing"

	"ewh/internal/join"
)

// buildKeyOf is the BuildKey of a relation that arrived as one chunk.
func buildKeyOf(keys []join.Key) BuildKey {
	return CombineDigests([]ChunkDigest{DigestKeys(keys)})
}

func TestDigestCombineMatchesChunkStructure(t *testing.T) {
	keys := randKeys(1000, 50, 80)
	whole := buildKeyOf(keys)
	if again := buildKeyOf(keys); again != whole {
		t.Fatal("the one-chunk build key is not deterministic")
	}
	// Same content, same chunk structure: identical key.
	split := []ChunkDigest{DigestKeys(keys[:400]), DigestKeys(keys[400:])}
	if CombineDigests(split) != CombineDigests(split) {
		t.Fatal("CombineDigests is not deterministic")
	}
	// Different content must (overwhelmingly) key differently.
	other := append([]join.Key(nil), keys...)
	other[500]++
	if buildKeyOf(other) == whole {
		t.Fatal("distinct content produced the same BuildKey")
	}
	// The fold is order-free: the same chunks arriving in another order are
	// the same key→multiplicity table.
	swapped := []ChunkDigest{split[1], split[0]}
	if CombineDigests(swapped) != CombineDigests(split) {
		t.Fatal("chunk arrival order changed the combined key")
	}
	// Another chunking of the same content keys differently: a false miss,
	// never a false hit.
	resplit := []ChunkDigest{DigestKeys(keys[:600]), DigestKeys(keys[600:])}
	if CombineDigests(resplit) == CombineDigests(split) || CombineDigests(split) == whole {
		t.Fatal("a different chunking of the same content keyed identically")
	}
	if got := CombineDigests(split).N; got != int64(len(keys)) {
		t.Fatalf("combined N = %d, want %d", got, len(keys))
	}
}

func sealedBuild(keys []join.Key) *Build {
	b := NewBuild()
	b.Insert(keys)
	b.Seal()
	return b
}

func TestBuildCacheHitMissEvict(t *testing.T) {
	r1 := randKeys(2000, 100, 81)
	b1 := sealedBuild(r1)
	c := NewBuildCache(4 * b1.MemBytes())

	k1 := buildKeyOf(r1)
	if c.Get(k1) != nil {
		t.Fatal("empty cache returned a build")
	}
	if got := c.Add(k1, b1); got != b1 {
		t.Fatal("first Add did not return the added build")
	}
	if c.Get(k1) != b1 {
		t.Fatal("Get missed a just-added entry")
	}
	// A racing Add of the same content yields the canonical first entry.
	if got := c.Add(k1, sealedBuild(r1)); got != b1 {
		t.Fatal("duplicate Add did not return the canonical build")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// Fill past the byte cap: the LRU tail (k1, untouched below) evicts.
	var keys []BuildKey
	for i := 0; i < 6; i++ {
		r := randKeys(2000, 100, 90+uint64(i))
		k := buildKeyOf(r)
		keys = append(keys, k)
		c.Add(k, sealedBuild(r))
	}
	st = c.Stats()
	if st.Bytes > 4*b1.MemBytes() {
		t.Fatalf("cache holds %d bytes, cap %d", st.Bytes, 4*b1.MemBytes())
	}
	if c.Get(k1) != nil {
		t.Fatal("LRU tail survived eviction")
	}
	if c.Get(keys[len(keys)-1]) == nil {
		t.Fatal("most recent entry was evicted")
	}
}

func TestBuildCacheOversizedAndNil(t *testing.T) {
	r := randKeys(5000, 1000, 85)
	b := sealedBuild(r)
	c := NewBuildCache(b.MemBytes() / 2)
	k := buildKeyOf(r)
	if got := c.Add(k, b); got != b {
		t.Fatal("oversized Add did not pass the build through")
	}
	if c.Get(k) != nil || c.Stats().Entries != 0 {
		t.Fatal("oversized build was admitted")
	}

	// A nil cache is the valid always-miss degenerate (cache disabled).
	var nc *BuildCache
	if nc != NewBuildCache(0) {
		t.Fatal("NewBuildCache(0) should return nil")
	}
	if nc.Get(k) != nil {
		t.Fatal("nil cache returned a build")
	}
	if nc.Add(k, b) != b {
		t.Fatal("nil cache Add did not pass through")
	}
	if nc.Stats() != (BuildCacheStats{}) {
		t.Fatal("nil cache stats not zero")
	}
}

// TestBuildCacheSharedProbes pins the sharing contract end to end: two "jobs"
// over the same relation content resolve to one build, and both count
// correctly through it.
func TestBuildCacheSharedProbes(t *testing.T) {
	r1 := dupHeavyKeys(3000, 86)
	probeA := dupHeavyKeys(1000, 87)
	probeB := dupHeavyKeys(1000, 88)
	wantA := NestedLoopCount(r1, probeA, join.Equi{})
	wantB := NestedLoopCount(r1, probeB, join.Equi{})

	c := NewBuildCache(1 << 20)
	// Job A: miss, build, publish.
	k := buildKeyOf(r1)
	bA := c.Get(k)
	if bA != nil {
		t.Fatal("unexpected hit")
	}
	bA = c.Add(k, sealedBuild(r1))
	if got := bA.ProbeCount(probeA); got != wantA {
		t.Fatalf("job A count = %d, want %d", got, wantA)
	}
	// Job B: same content (chunked differently upstream doesn't matter here —
	// same flat digest), hit, probe the shared build.
	bB := c.Get(buildKeyOf(append([]join.Key(nil), r1...)))
	if bB != bA {
		t.Fatal("job B did not hit job A's build")
	}
	if got := bB.ProbeCount(probeB); got != wantB {
		t.Fatalf("job B count = %d, want %d", got, wantB)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want exactly 1 hit", st)
	}
}

// TestBuildCacheConcurrentProbes is the race proof for the one place a Build
// crosses goroutines: one job inserts, seals and publishes it through the
// cache while other jobs spin on Get and probe it the moment it appears, over
// a dense, a sparse and a converting relation. The cache's lock is the only
// synchronization between them, and every count must match the oracle.
func TestBuildCacheConcurrentProbes(t *testing.T) {
	probe := probeKeys(1000, 61)
	for _, rel := range buildRelations(4000, 60) {
		want := NestedLoopCount(rel.keys, probe, join.Equi{})
		c := NewBuildCache(1 << 24)
		k := buildKeyOf(rel.keys)
		counts := make([]int64, 4)
		var wg sync.WaitGroup
		for g := range counts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := c.Get(k)
				for ; b == nil; b = c.Get(k) {
					runtime.Gosched()
				}
				counts[g] = b.ProbeCount(probe)
			}()
		}
		b := NewBuild()
		for _, ch := range chunked(rel.keys, 256) {
			b.Insert(ch)
		}
		b.Seal()
		c.Add(k, b)
		wg.Wait()
		for g, got := range counts {
			if got != want {
				t.Errorf("%s: prober %d counted %d, want %d", rel.name, g, got, want)
			}
		}
	}
}
