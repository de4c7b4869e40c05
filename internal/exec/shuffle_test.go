package exec

import (
	"fmt"
	"slices"
	"testing"

	"ewh/internal/bufpool"
	"ewh/internal/core"
	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/stats"
	"ewh/internal/tiling"
)

// shuffleSchemes covers every case the scatter kernel takes:
//   - identity (a key's group is its worker): Hash, and the R1 sides of
//     Broadcast and PRPD Hash;
//   - one receiver: PRPD Hash's R2 side but for its heavy key, which
//     broadcasts, and most keys of the CSIO plan, which routes a key only to
//     the regions where it can join;
//   - two receivers: every key of CI(4), whose 2×2 grid sends a key to a
//     row or column of two;
//   - the walk: every key of CI(16), whose rows and columns hold four, and
//     of Broadcast's R2 side.
//
// Two schemes lie past the kernels' stack bounds: a Hash of more than
// maxLocalWorkers workers, and a staircase of regions with more than 256
// slabs per axis (partition's maxLocalGroups), whose groups have one worker,
// two, or none where a region is missing.
func shuffleSchemes(t *testing.T, r1, r2 []join.Key) []partition.Scheme {
	t.Helper()
	hash, err := partition.NewHash(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	heavy := partition.DetectHeavyKeys(r1, 0.1)
	if len(heavy) == 0 {
		t.Fatal("the generator planted no heavy key")
	}
	prpd, err := partition.NewHash(6, heavy)
	if err != nil {
		t.Fatal(err)
	}
	bcast, err := partition.NewBroadcast(5)
	if err != nil {
		t.Fatal(err)
	}
	csio, err := core.PlanCSIO(r1, r2, join.NewBand(2), core.Options{J: 6, Model: model, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := partition.NewHash(maxLocalWorkers+44, nil)
	if err != nil {
		t.Fatal(err)
	}
	var stairs []tiling.Region
	for i := 0; i < 200; i++ {
		if i%7 != 3 {
			lo, hi := join.Key(3*i), join.Key(3*i+4)
			stairs = append(stairs, tiling.Region{RowLo: lo, RowHi: hi, ColLo: lo, ColHi: hi})
		}
	}
	edges := make(map[join.Key]bool)
	for _, r := range stairs {
		edges[r.RowLo], edges[r.RowHi] = true, true
	}
	if len(edges)+1 <= 256 {
		t.Fatalf("the staircase cuts each axis into %d slabs, want more than 256", len(edges)+1)
	}
	return []partition.Scheme{hash, partition.NewCI(4), partition.NewCI(16), csio.Scheme, prpd, bcast,
		wide, partition.NewRegionScheme("stairs", stairs)}
}

// concatChunks drains cs and returns each worker's chunks concatenated in
// ascending mapper order.
func concatChunks(t *testing.T, cs *ChunkStream, workers int) [][]join.Key {
	t.Helper()
	out := make([][]join.Key, workers)
	for w := range out {
		var chunks []KeyChunk
		for c := range cs.Worker(w) {
			chunks = append(chunks, c)
		}
		slices.SortFunc(chunks, func(a, b KeyChunk) int { return a.Mapper - b.Mapper })
		for i, c := range chunks {
			if i > 0 && c.Mapper == chunks[i-1].Mapper {
				t.Fatalf("worker %d received two chunks from mapper %d", w, c.Mapper)
			}
			out[w] = append(out[w], c.Keys...)
			bufpool.Keys.Put(c.Keys)
		}
	}
	return out
}

// TestShuffleFlatChunkedCompanionAgree pins the contract every transport's
// bit-identity rests on, directly at the shuffle: per worker, the flat
// shuffle's block equals the mapper-major concatenation of the chunked
// shuffle's sub-blocks; a companion column stays aligned with its keys slot
// for slot; and Total() is the number of routes recorded.
func TestShuffleFlatChunkedCompanionAgree(t *testing.T) {
	const full = 5000
	base1 := randKeys(full, 400, 700)
	for i := 0; i < full/4; i++ {
		base1[i*4] = 7 // one heavy hitter, spread over every mapper's shard
	}
	base2 := randKeys(full, 400, 701)
	for _, s := range shuffleSchemes(t, base1, base2) {
		for _, mappers := range []int{1, 3, 8} {
			for _, n := range []int{0, 1, full} {
				id := fmt.Sprintf("%s J=%d mappers=%d n=%d", s.Name(), s.Workers(), mappers, n)
				r1, r2 := base1[:n], base2[:n]
				cfg := Config{Seed: 702, Mappers: mappers}
				j := s.Workers()

				f1, f2 := ShufflePair(r1, r2, s, cfg)
				c1, c2 := shufflePairChunked(r1, r2, s, cfg)
				for rel, side := range []struct {
					keys    []join.Key
					flat    *KeyShuffle
					chunked [][]join.Key
					rngs    []*stats.RNG
				}{
					{r1, f1, concatChunks(t, c1, j), splitRNGs(cfg.Seed, 0, mappers)},
					{r2, f2, concatChunks(t, c2, j), splitRNGs(cfg.Seed, 1, mappers)},
				} {
					// The oracle: an independent replay of the route pass, each
					// key appended to its receivers mapper by mapper.
					want, routed := make([][]join.Key, j), 0
					var b partition.RouteBatch
					for mi, rng := range side.rngs {
						lo, hi := shard(len(side.keys), mappers, mi)
						b.Reset(j, hi-lo)
						routeFor(s, rel+1)(side.keys[lo:hi], rng, &b)
						for i, k := range side.keys[lo:hi] {
							for _, w := range b.Receivers(i) {
								want[w] = append(want[w], k)
								routed++
							}
						}
					}
					if side.flat.Total() != routed {
						t.Fatalf("%s rel %d: Total() = %d, routes recorded %d", id, rel+1, side.flat.Total(), routed)
					}

					rows := rowIndex(len(side.keys))
					ks, cs := shuffleRelation(side.keys, rows, s, rel+1, mappers, splitRNGs(cfg.Seed, rel, mappers))
					if ks.Total() != routed || cs.Total() != routed {
						t.Fatalf("%s rel %d: with a companion the columns hold %d and %d slots, want %d",
							id, rel+1, ks.Total(), cs.Total(), routed)
					}
					for w := 0; w < j; w++ {
						blk := side.flat.Worker(w)
						if !slices.Equal(blk, want[w]) {
							t.Fatalf("%s rel %d worker %d: flat block != replayed routes", id, rel+1, w)
						}
						if !slices.Equal(blk, side.chunked[w]) {
							t.Fatalf("%s rel %d worker %d: flat block != concatenated chunks", id, rel+1, w)
						}
						if !slices.Equal(blk, ks.Worker(w)) {
							t.Fatalf("%s rel %d worker %d: a companion changed the key column", id, rel+1, w)
						}
						for i, row := range cs.Worker(w) {
							if side.keys[row] != blk[i] {
								t.Fatalf("%s rel %d worker %d slot %d: companion names row %d (key %d), slot holds key %d",
									id, rel+1, w, i, row, side.keys[row], blk[i])
							}
						}
					}
					ks.Release()
					cs.Release()
					bufpool.Keys.Put(rows)
					side.flat.Release()
				}
			}
		}
	}
}

// splitRNGs returns relation rel's (0 or 1) mapper streams as a pair shuffle
// splits them from seed: all of relation 1's before relation 2's.
func splitRNGs(seed uint64, rel, mappers int) []*stats.RNG {
	master := stats.NewRNG(seed)
	if rel == 1 {
		mapperRNGs(master, mappers)
	}
	return mapperRNGs(master, mappers)
}
