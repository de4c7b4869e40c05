package sample

import (
	"slices"
	"sync"

	"ewh/internal/join"
	"ewh/internal/stats"
)

// OutputSample is a uniform random sample of the join output, with
// replacement, plus the output size m computed as a by-product
// (m = Σ_{t1∈R1} d2(t1.A), §IV-A "Parameters").
type OutputSample struct {
	// Pairs holds the join-key pairs (R1 key, R2 key) of the sampled output
	// tuples. Output samples carry only join keys (§IV-A item 2).
	Pairs [][2]join.Key
	// M is the exact size of the join of the R1 keys walked with R2: the
	// join output size when they are all of R1, and the size of a sample's
	// join, which the caller scales, when they are a sample of it.
	M int64
}

// StreamSample draws a uniform random sample of size so (with replacement)
// from the output of r1 ⋈_cond r2 without executing the join, extending
// Chaudhuri et al.'s Stream-Sample [8] from equi-joins to monotonic joins
// and parallelizing it over the given number of workers:
//
//  1. Build d2equi (R2's key multiplicities with their prefix sums).
//  2. Shard R1; per shard, sum d2(t1.A) = |joinable set of t1| to obtain the
//     exact output size M and per-shard weight offsets.
//  3. Draw so positions uniformly in [0, M); each shard materializes the
//     positions landing in its weight span (weighted WR sampling of R1,
//     exact, one more scan).
//  4. For each sampled t1, draw a partner R2 key uniformly from its joinable
//     multiset via d2equi prefix sums.
//
// The result is an exact uniform WR sample of the output (each output tuple
// equi-probable), which joining uniform input samples cannot provide [8].
func StreamSample(r1, r2 []join.Key, cond join.Condition, so, workers int, rng *stats.RNG) *OutputSample {
	m2 := BuildMultiset(r2)
	return StreamSampleWith(r1, m2, cond, so, workers, rng)
}

// StreamSampleWith is StreamSample over a prebuilt R2 multiset. Callers that
// walk only a SAMPLE of R1 (the CSIO planner's input sample, a distributed
// statistics summary's keys) get a sample
// of r1sample ⋈ R2 with its exact size M — an approximately uniform output
// sample of the full join when r1sample is itself uniform, with M scaling by
// the sampling fraction. With so = 0 it draws nothing (rng may be nil) and
// returns only M.
func StreamSampleWith(r1 []join.Key, m2 *KeyMultiset, cond join.Condition, so, workers int, rng *stats.RNG) *OutputSample {
	n := len(r1)
	if n == 0 {
		return &OutputSample{}
	}
	workers = min(max(workers, 1), n)

	// Step 2: per-shard total weights. Each element's d2 and its joinable
	// range's lower-bound index are cached so the materialize pass (step 3)
	// and the partner draws (step 4) never repeat the multiset searches: the
	// cached values are exactly what the second scan would recompute, so the
	// sample is bit-identical to the two-scan formulation.
	shardW := make([]int64, workers)
	d2s := make([]int64, n)
	ats := make([]int32, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := shardBounds(n, workers, w)
			shardW[w] = m2.D2s(cond, r1[lo:hi], d2s[lo:hi], ats[lo:hi])
		}(w)
	}
	wg.Wait()

	offsets := make([]int64, workers+1)
	for w := 0; w < workers; w++ {
		offsets[w+1] = offsets[w] + shardW[w]
	}
	m := offsets[workers]
	out := &OutputSample{M: m}
	if m == 0 || so <= 0 {
		return out
	}

	// Step 3: sorted uniform positions in [0, m), dispatched to shards.
	positions := make([]int64, so)
	for i := range positions {
		positions[i] = rng.Int64n(m)
	}
	slices.Sort(positions)

	pairShards := make([][][2]join.Key, workers)
	rngs := make([]*stats.RNG, workers)
	for w := 0; w < workers; w++ {
		rngs[w] = rng.Split()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := shardBounds(n, workers, w)
			// Positions addressed to this shard.
			pLo, _ := slices.BinarySearch(positions, offsets[w])
			pHi, _ := slices.BinarySearch(positions, offsets[w+1])
			if pLo == pHi {
				return
			}
			local := positions[pLo:pHi]
			pairs := make([][2]join.Key, 0, len(local))
			cum := offsets[w]
			pi := 0
			for i, k := range r1[lo:hi] {
				d2 := d2s[lo+i]
				if d2 == 0 {
					continue
				}
				next := cum + d2
				for pi < len(local) && local[pi] < next {
					// Step 4: uniform partner from the joinable multiset.
					u := rngs[w].Int64n(d2)
					pairs = append(pairs, [2]join.Key{k, m2.SelectAt(ats[lo+i], u)})
					pi++
				}
				cum = next
				if pi == len(local) {
					break
				}
			}
			pairShards[w] = pairs
		}(w)
	}
	wg.Wait()

	for _, p := range pairShards {
		out.Pairs = append(out.Pairs, p...)
	}
	return out
}

// shardBounds splits [0, n) into `workers` near-equal contiguous shards and
// returns the w-th shard's bounds.
func shardBounds(n, workers, w int) (lo, hi int) {
	lo = n * w / workers
	hi = n * (w + 1) / workers
	return lo, hi
}
