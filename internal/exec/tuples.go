package exec

import (
	"time"

	"ewh/internal/bufpool"
	"ewh/internal/cost"
	"ewh/internal/join"
	"ewh/internal/partition"
)

// Tuple carries a routing join key and an opaque payload — the engine's
// richer tuple model for pipelines that must materialize join results (e.g.
// the multi-way join of §IV-B, where the output of one join feeds the next
// operator over the network).
type Tuple[P any] struct {
	Key     join.Key
	Payload P
}

// Keys projects the routing keys of a tuple slice.
func Keys[P any](ts []Tuple[P]) []join.Key {
	out := make([]join.Key, len(ts))
	for i, t := range ts {
		out[i] = t.Key
	}
	return out
}

// WrapKeys lifts bare keys into payload-less tuples.
func WrapKeys(keys []join.Key) []Tuple[struct{}] {
	out := make([]Tuple[struct{}], len(keys))
	for i, k := range keys {
		out[i].Key = k
	}
	return out
}

// RunTuples shuffles payload-carrying relations to the scheme's workers and
// joins them locally, invoking emit once per matching pair. emit is called
// concurrently from different workers but never concurrently for the same
// workerID, so per-worker accumulation needs no locking. The returned Result
// carries the same metrics as Run. It is RunTuplesOver with the Local
// runtime.
func RunTuples[P1, P2 any](r1 []Tuple[P1], r2 []Tuple[P2], cond join.Condition,
	scheme partition.Scheme, model cost.Model, cfg Config,
	emit func(workerID int, a Tuple[P1], b Tuple[P2])) *Result {

	res, _ := RunTuplesOver(Local{}, r1, r2, cond, scheme, model, cfg, emit)
	return res
}

// RunTuplesOver executes a payload-carrying join through rt: RunPairsOver
// over the projected keys, each matched row pair mapped back onto the
// caller's tuples — payloads never enter the shuffle, let alone a wire.
// emit's concurrency and order are RunPairsOver's; a nil emit is a count job.
func RunTuplesOver[P1, P2 any](rt Runtime, r1 []Tuple[P1], r2 []Tuple[P2],
	cond join.Condition, scheme partition.Scheme, model cost.Model, cfg Config,
	emit func(workerID int, a Tuple[P1], b Tuple[P2])) (*Result, error) {

	var rows func(w, row1, row2 int)
	if emit != nil {
		rows = func(w, row1, row2 int) { emit(w, r1[row1], r2[row2]) }
	}
	return RunPairsOver(rt, Keys(r1), Keys(r2), cond, scheme, model, cfg, rows)
}

// RunPairsOver executes a pair-emitting join through rt. Each relation is
// shuffled exactly once with its row index as companion column (flat pooled
// buffers: a pairs job joins in arrival order); the runtime joins the key
// blocks and streams back matched index pairs, which this driver maps through
// the shuffled row indices to call emit with the ORIGINAL row numbers (into r1
// and r2) of each pair — so emission is identical no matter where the join
// ran, and only keys ever cross a wire.
//
// emit is called concurrently from different workers but never concurrently
// for the same worker. Pair order per worker is deterministic: R1 arrival
// order, partners ascending by (key, arrival index). A nil emit is RunOver:
// the job is a count, run as every other count job on rt (a wire transport
// chunk-streams it) instead of enumerating matches nobody will see.
func RunPairsOver(rt Runtime, r1, r2 []join.Key, cond join.Condition,
	scheme partition.Scheme, model cost.Model, cfg Config,
	emit func(worker, row1, row2 int)) (*Result, error) {

	if emit == nil {
		return RunOver(rt, r1, r2, cond, scheme, model, cfg)
	}
	if err := CheckScheme(scheme, cond); err != nil {
		return nil, err
	}
	cfg.defaults()
	start := time.Now()
	f1, f2 := newRelFuture(), newRelFuture()
	idx1, idx2 := rowIndex(len(r1)), rowIndex(len(r2)) // the input row indices
	var rows1, rows2 *KeyShuffle
	job := &Job{Cond: cond, Workers: scheme.Workers(), R1: f1, R2: f2,
		Pairs: func(w int, chunk []PairIdx) {
			// The future waits are free after resolution and give this
			// goroutine an explicit acquire edge on the rows1/rows2 writes —
			// pair delivery paths (e.g. a session's socket read loop) must
			// not rely on transitive ordering through the transport.
			f1.Wait()
			f2.Wait()
			b1, b2 := rows1.Worker(w), rows2.Worker(w)
			for _, p := range chunk {
				emit(w, int(b1[p.I1]), int(b2[p.I2]))
			}
		}}
	// The callbacks publish rows1/rows2 before closing the future, so any
	// goroutine that Waited it sees the blocks.
	shufflePairAsync(r1, idx1, r2, idx2, scheme, cfg,
		func(k, rows *KeyShuffle) { rows1 = rows; f1.resolve(RelData{Keys: k}) },
		func(k, rows *KeyShuffle) { rows2 = rows; f2.resolve(RelData{Keys: k}) })
	res, err := dispatch(rt, job, scheme, model, cfg, start)
	rows1.Release()
	rows2.Release()
	bufpool.Keys.Put(idx1)
	bufpool.Keys.Put(idx2)
	return res, err
}

// rowIndex returns the pooled column 0, 1, …, n-1.
func rowIndex(n int) []join.Key {
	idx := bufpool.Keys.Get(n)
	for i := range idx {
		idx[i] = join.Key(i)
	}
	return idx
}
