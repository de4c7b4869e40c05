package exec

import (
	"time"

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
	keysInto(out, ts)
	return out
}

// keysInto projects routing keys into a caller-owned (typically pooled)
// buffer; dst must have length len(ts).
func keysInto[P any](dst []join.Key, ts []Tuple[P]) {
	for i, t := range ts {
		dst[i] = t.Key
	}
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

// RunTuplesOver executes a payload-carrying join through rt. The tuples are
// shuffled exactly once (flat pooled buffers, as Run's key path); the
// runtime joins the projected key blocks and streams back matched index
// pairs, which this driver maps onto the shuffled tuple blocks to invoke
// emit — so emission is identical no matter where the join ran, and only
// keys ever cross a wire.
//
// emit is called concurrently from different workers but never concurrently
// for the same workerID. Pair order per worker is deterministic: R1 arrival
// order, partners ascending by (key, arrival index).
func RunTuplesOver[P1, P2 any](rt Runtime, r1 []Tuple[P1], r2 []Tuple[P2],
	cond join.Condition, scheme partition.Scheme, model cost.Model, cfg Config,
	emit func(workerID int, a Tuple[P1], b Tuple[P2])) (*Result, error) {

	cfg.defaults()
	start := time.Now()
	j := scheme.Workers()
	ts := shuffleTuples(r1, r2, scheme, cfg, nil)
	job := &Job{Cond: cond, Workers: j, R1: ts.f1, R2: ts.f2, Engine: cfg.Engine}
	if emit != nil {
		// A nil emit leaves Pairs nil too: the job runs count-only on every
		// transport (in-place merge-sweep locally, no pairs traffic on a
		// wire) instead of enumerating matches nobody will see.
		job.Pairs = func(w int, chunk []PairIdx) {
			// The future waits are free after resolution and give this
			// goroutine an explicit acquire edge on the s1/s2 writes —
			// pair delivery paths (e.g. a session's socket read loop) must
			// not rely on transitive ordering through the transport.
			ts.f1.Wait()
			ts.f2.Wait()
			b1, b2 := ts.s1.worker(w), ts.s2.worker(w)
			for _, p := range chunk {
				emit(w, b1[p.I1], b2[p.I2])
			}
		}
	}
	res := &Result{Scheme: scheme.Name() + rt.Label(), Workers: make([]WorkerMetrics, j)}
	err := rt.RunJob(job, res.Workers)
	ts.release()
	if err != nil {
		return nil, err
	}
	finishResult(res, model, start, cfg.BytesPerTuple)
	return res, nil
}

// tupleShuffle is the shuffled state the tuple drivers (RunTuplesOver,
// RunStagesOver) share: the pooled key projections the routing read, the
// shuffled tuple blocks pair emission indexes, and the futures a runtime
// consumes.
type tupleShuffle[P1, P2 any] struct {
	k1, k2 []join.Key
	s1     shuffled[Tuple[P1]]
	s2     shuffled[Tuple[P2]]
	f1, f2 *RelFuture
}

// shuffleTuples projects both relations' routing keys into pooled buffers and
// starts their shuffle (flat tuple buffers from the per-type tuple pool, so
// steady-state runs allocate nothing proportional to the input). Each future
// resolves to the relation's key blocks; a non-nil rekey (keysInto's shape,
// reading the payloads) additionally projects relation 2's re-key column.
// The resolve callbacks publish s1/s2 before closing the future, so any
// goroutine that Waited it sees the blocks.
func shuffleTuples[P1, P2 any](r1 []Tuple[P1], r2 []Tuple[P2], scheme partition.Scheme,
	cfg Config, rekey func(dst []join.Key, ts []Tuple[P2])) *tupleShuffle[P1, P2] {

	ts := &tupleShuffle[P1, P2]{k1: GetKeyBuffer(len(r1)), k2: GetKeyBuffer(len(r2)),
		f1: newRelFuture(), f2: newRelFuture()}
	keysInto(ts.k1, r1)
	keysInto(ts.k2, r2)
	shufflePairAsync(r1, ts.k1, r2, ts.k2, scheme, cfg, getTupleSlice[P1], getTupleSlice[P2],
		func(s shuffled[Tuple[P1]]) {
			ts.s1 = s
			ts.f1.resolve(RelData{Keys: columnOf(s, keysInto[P1])})
		},
		func(s shuffled[Tuple[P2]]) {
			ts.s2 = s
			rd := RelData{Keys: columnOf(s, keysInto[P2])}
			if rekey != nil {
				rd.Rekey = columnOf(s, rekey)
			}
			ts.f2.resolve(rd)
		})
	return ts
}

// columnOf projects one key column of a shuffled tuple relation into a pooled
// flat buffer sharing the shuffle's per-worker offsets.
func columnOf[P any](s shuffled[Tuple[P]], into func(dst []join.Key, ts []Tuple[P])) *KeyShuffle {
	flat := GetKeyBuffer(len(s.flat))
	into(flat, s.flat)
	return &KeyShuffle{shuffled[join.Key]{flat: flat, off: s.off}}
}

// release recycles everything shuffleTuples took from the pools. It waits
// for both shuffles first: a transport that errored early may return while a
// scatter is still reading k1/k2. emit receives tuples by value, so the flat
// tuple buffers are dead here too; the put clears nothing — getTupleSlice
// clears the tail a shorter future job would otherwise leak.
func (ts *tupleShuffle[P1, P2]) release() {
	releaseRelData(ts.f1.Wait())
	releaseRelData(ts.f2.Wait())
	PutKeyBuffer(ts.k1)
	PutKeyBuffer(ts.k2)
	putTupleSlice(ts.s1.flat)
	putTupleSlice(ts.s2.flat)
}
