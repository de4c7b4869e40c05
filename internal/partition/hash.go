package partition

import (
	"fmt"
	"slices"

	"ewh/internal/join"
	"ewh/internal/stats"
)

// Hash is the classic equi-join partitioner the paper's related work starts
// from (§V.1): both relations hash-partition by join key, so matching tuples
// land on the same worker with no replication. It is correct ONLY for pure
// equality conditions — hashing scatters neighbouring keys, which is exactly
// why the paper develops range-based schemes for monotonic joins.
//
// HeavyKeys enables PRPD-style skew handling [1]: tuples of a heavy R1 key
// are scattered round-robin over all workers (eliminating the hash hot
// spot), while R2 tuples with that key broadcast to all workers so every
// scattered copy finds its partners; each pair still meets exactly once
// because only the R1 side is scattered.
type Hash struct {
	workers int
	heavy   []join.Key // sorted
	orAll   GroupTable // each worker's own group, then "all"; only with heavy keys
}

// NewHash builds a hash scheme for j workers with the given heavy-hitter
// keys (may be nil).
func NewHash(j int, heavyKeys []join.Key) (*Hash, error) {
	if j < 1 {
		return nil, fmt.Errorf("partition: hash scheme needs j >= 1, got %d", j)
	}
	h := &Hash{workers: j, heavy: append([]join.Key(nil), heavyKeys...)}
	slices.Sort(h.heavy)
	// Duplicates are routing no-ops; dropping them keeps the sorted set the
	// canonical form the plan codec round-trips byte-exactly.
	h.heavy = slices.Compact(h.heavy)
	if len(h.heavy) > 0 {
		own := gridTable(j, 1, 1, 0)
		h.orAll = newGroupTable(append(own.Off, int32(2*j)), append(own.Recv, own.Recv...))
	}
	return h, nil
}

// DetectHeavyKeys returns the keys whose frequency in keys exceeds
// fraction·len(keys) — the PRPD heavy-hitter threshold. A sample works fine
// as input.
func DetectHeavyKeys(keys []join.Key, fraction float64) []join.Key {
	if fraction <= 0 || len(keys) == 0 {
		return nil
	}
	counts := make(map[join.Key]int, 1024)
	for _, k := range keys {
		counts[k]++
	}
	threshold := int(fraction * float64(len(keys)))
	if threshold < 1 {
		threshold = 1
	}
	var heavy []join.Key
	for k, c := range counts {
		if c > threshold {
			heavy = append(heavy, k)
		}
	}
	slices.Sort(heavy)
	return heavy
}

// Name implements Scheme.
func (h *Hash) Name() string {
	if len(h.heavy) > 0 {
		return "HashPRPD"
	}
	return "Hash"
}

// Workers implements Scheme.
func (h *Hash) Workers() int { return h.workers }

// HeavyKeys returns the scheme's heavy-hitter keys, sorted (read-only) — the
// plan codec persists them so a decoded Hash plan routes identically.
func (h *Hash) HeavyKeys() []join.Key { return h.heavy }

func (h *Hash) isHeavy(k join.Key) bool {
	_, found := slices.BinarySearch(h.heavy, k)
	return found
}

// hashKey is splitmix64-style mixing of the join key.
func hashKey(k join.Key) uint64 {
	z := uint64(k) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RouteBatchR1 implements Scheme: a key's group is one worker (heavy keys
// scatter uniformly at random — the mapper-local RNG keeps routing race-free
// — others hash), and the common no-heavy-hitter case is a tight hash loop.
func (h *Hash) RouteBatchR1(keys []join.Key, rng *stats.RNG, b *RouteBatch) {
	j := uint64(h.workers)
	ids, counts := b.begin(len(keys), GroupTable{}, nil)
	keys = keys[:len(ids)]
	if len(h.heavy) == 0 {
		for i, k := range keys {
			w := int32(hashKey(k) % j)
			ids[i] = w
			counts[w]++
		}
		return
	}
	for i, k := range keys {
		var w int32
		if h.isHeavy(k) {
			w = int32(rng.Intn(h.workers))
		} else {
			w = int32(hashKey(k) % j)
		}
		ids[i] = w
		counts[w]++
	}
}

// RouteBatchR2 implements Scheme: without heavy hitters R1's hash loop; with
// them a heavy key's group is "all", the one past the workers' own.
func (h *Hash) RouteBatchR2(keys []join.Key, _ *stats.RNG, b *RouteBatch) {
	if len(h.heavy) == 0 {
		h.RouteBatchR1(keys, nil, b)
		return
	}
	j := uint64(h.workers)
	var local groupTally
	ids, hits := b.begin(len(keys), h.orAll, &local)
	keys = keys[:len(ids)]
	for i, k := range keys {
		g := int32(h.workers)
		if !h.isHeavy(k) {
			g = int32(hashKey(k) % j)
		}
		ids[i] = g
		hits[g]++
	}
	b.fold(hits)
}

// Broadcast replicates R2 (conventionally the smaller relation) to every
// worker and scatters R1 uniformly — the broadcast join of §V, "efficient
// only if the replicated relation is very small". It is correct for any
// join condition.
type Broadcast struct {
	workers int
	all     GroupTable // the one group of R2: every worker
}

// NewBroadcast builds a broadcast scheme for j workers.
func NewBroadcast(j int) (*Broadcast, error) {
	if j < 1 {
		return nil, fmt.Errorf("partition: broadcast scheme needs j >= 1, got %d", j)
	}
	return &Broadcast{workers: j, all: gridTable(1, j, 0, 1)}, nil
}

// Name implements Scheme.
func (b *Broadcast) Name() string { return "Broadcast" }

// Workers implements Scheme.
func (b *Broadcast) Workers() int { return b.workers }

// RouteBatchR1 implements Scheme: uniform scatter, one RNG draw per key.
func (b *Broadcast) RouteBatchR1(keys []join.Key, rng *stats.RNG, rb *RouteBatch) {
	routeUniform(len(keys), b.workers, GroupTable{}, rng, rb)
}

// RouteBatchR2 implements Scheme: every key's group is the one group, "all".
func (b *Broadcast) RouteBatchR2(keys []join.Key, _ *stats.RNG, rb *RouteBatch) {
	var local groupTally
	ids, hits := rb.begin(len(keys), b.all, &local)
	clear(ids)
	hits[0] = len(keys)
	rb.fold(hits)
}
