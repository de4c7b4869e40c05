package localjoin

import (
	"container/list"
	"math/bits"
	"sync"

	"ewh/internal/join"
)

// BuildCache shares immutable sealed resident sides between jobs that index
// the same relation content — the multi-tenant fleet's "many queries probe the
// same dimension table" case. A side is cached in the direct-address form it
// sealed into, a dense window or a rank table, and keyed by that form beside a
// 128-bit content digest of its key block (plus its exact length): two tenants
// running the same scheme over the same relation hit the same entry without
// any coordination, while an equi window and a band table over the same keys
// are two entries that never shadow each other. A sorted block is the job's
// own and never cached. Entries are evicted by size-capped LRU. An evicted
// side stays valid for jobs still probing it (it is immutable; the cache only
// drops its own reference), so eviction needs no reference counting.

// digest constants: two independent word-wise FNV-1a-style streams. 64 bits
// each; H2 folds a rotated view of every key so the pair behaves as one
// 128-bit digest — collisions between distinct relation contents are not a
// practical concern at fleet cache sizes.
const (
	fnvOffset1 = 0xcbf29ce484222325
	fnvPrime1  = 0x00000100000001b3
	fnvOffset2 = 0x6c62272e07bb0142
	fnvPrime2  = 0x0000010000000233
)

// buildKey is the content digest of a key chunk or, its chunks' digests
// folded by plus, of a relation: the cache's key for the relation's content.
// A streamed relation's chunks fold as they arrive, so hashing overlaps the
// stream instead of requiring the assembled block.
type buildKey struct {
	H1, H2 uint64
	N      int64
}

// digestKeys digests one chunk of keys.
func digestKeys(keys []join.Key) buildKey {
	h1, h2 := uint64(fnvOffset1), uint64(fnvOffset2)
	for _, k := range keys {
		x := uint64(k)
		h1 = (h1 ^ x) * fnvPrime1
		h2 = (h2 ^ bits.RotateLeft64(x, 31)) * fnvPrime2
	}
	return buildKey{H1: h1, H2: h2, N: int64(len(keys))}
}

// plus folds d into k by summing them, so the fold does not depend on their
// order: a sealed side is a multiset of keys, and arrival order is no part of
// its content. The same chunks key identically however they interleave;
// another chunking of the same content keys differently, a false miss, never
// a false hit.
func (k buildKey) plus(d buildKey) buildKey {
	return buildKey{H1: k.H1 + d.H1, H2: k.H2 + d.H2, N: k.N + d.N}
}

// BuildCacheStats is a point-in-time snapshot of a cache's counters.
type BuildCacheStats struct {
	Hits, Misses int64
	Entries      int
	Bytes        int64
}

// BuildCache is a size-capped LRU of sealed sides keyed by relation content
// and form. Safe for concurrent use.
type BuildCache struct {
	mu     sync.Mutex
	max    int64
	size   int64
	ll     *list.List // front = most recently used; values are *cacheEntry
	m      map[cacheKey]*list.Element
	hits   int64
	misses int64
}

// sealedSide is a form the cache holds: a sealed dense window or a sealed
// rank table, immutable either way.
type sealedSide interface {
	*denseWindow | *rankTable
	MemBytes() int64
}

// cacheKey is an entry's content key and the form it sealed into.
type cacheKey struct {
	buildKey
	form Form
}

type cacheEntry struct {
	key   cacheKey
	side  any // the sealedSide
	bytes int64
}

// NewBuildCache returns a cache holding at most maxBytes of sealed sides
// (MemBytes accounting). maxBytes <= 0 returns nil — a nil *BuildCache is a
// valid always-miss cache, so callers gate on one pointer.
func NewBuildCache(maxBytes int64) *BuildCache {
	if maxBytes <= 0 {
		return nil
	}
	return &BuildCache{max: maxBytes, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

// cacheGet returns the side cached under key, whose form is S's, or nil.
// Hit/miss counters make the lookup observable (the benchmark's
// localjoin.cache_hit_rate). Nil cache: always miss, uncounted.
func cacheGet[S sealedSide](c *BuildCache, key cacheKey) S {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.m[key]
	if el == nil {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).side.(S)
}

// cacheAdd caches a SEALED side, in key's form, under key and returns the
// canonical side for that key: when a concurrent job raced the same content
// in first, the existing entry wins and the caller's side is discarded —
// every sharer probes one immutable side. Sides larger than the whole cache are not
// admitted (returned as-is). Nil cache: passthrough.
func cacheAdd[S sealedSide](c *BuildCache, k cacheKey, s S) S {
	if c == nil {
		return s
	}
	bytes := s.MemBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.m[k]; el != nil {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).side.(S)
	}
	if bytes > c.max {
		return s
	}
	c.m[k] = c.ll.PushFront(&cacheEntry{key: k, side: s, bytes: bytes})
	c.size += bytes
	for c.size > c.max {
		el := c.ll.Back()
		e := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.m, e.key)
		c.size -= e.bytes
	}
	return s
}

// Stats snapshots the cache counters. Nil receiver: zero stats.
func (c *BuildCache) Stats() BuildCacheStats {
	if c == nil {
		return BuildCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return BuildCacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(), Bytes: c.size}
}
