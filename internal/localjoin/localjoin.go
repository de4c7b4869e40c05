// Package localjoin provides the algorithms each machine runs over its
// region's tuples. The partitioning schemes are orthogonal to the local join
// (§IV "Local Join Algorithm"): a count keeps one side's chunks and builds it
// once, at its seal, in the form one rule (FormOf) picks from the condition
// and the whole side's span — a dense count window for pure equality
// conditions and a rank table for a band or inequality while their slots fit
// a byte budget, the sort-merge monotonic join otherwise. The side owns the
// chunks streamed to it and returns each to bufpool.Keys once done with it.
package localjoin

import (
	"slices"

	"ewh/internal/bufpool"
	"ewh/internal/join"
	"ewh/internal/keysort"
	"ewh/internal/stage"
)

// Count returns |r1 ⋈_cond r2| with a sort-merge sweep: both sides are
// sorted once (radix keysort, no reflection or comparison overhead) and the
// joinable window of R2 keys is maintained with two advancing cursors — the
// sorts are O(n) counting passes and the sweep is O(n1+n2), with no
// per-tuple binary-search probes. It requires the condition's JoinableRange
// endpoints to be nondecreasing in the R1 key wherever the range is not
// empty, which holds for every monotonic condition in this library (§III-B).
func Count(r1, r2 []join.Key, cond join.Condition) int64 {
	if len(r1) == 0 || len(r2) == 0 {
		return 0
	}
	s1 := slices.Clone(r1)
	s2 := slices.Clone(r2)
	keysort.Sort(s1)
	keysort.Sort(s2)
	return CountSorted(s1, s2, cond)
}

// CountSorted is Count over pre-sorted inputs: callers that own their buffers
// (the engine's reduce phase sorts its flat shuffle output in place) skip the
// defensive copies and pay only the O(n1+n2) sweep.
func CountSorted(s1, s2 []join.Key, cond join.Condition) int64 {
	if len(s1) == 0 || len(s2) == 0 {
		return 0
	}
	var out int64
	loIdx, hiIdx := 0, 0 // window [loIdx, hiIdx) of joinable s2 keys
	for _, k := range s1 {
		lo, hi := cond.JoinableRange(k)
		if lo > hi {
			continue // a strict inequality's extreme key joins nothing
		}
		for loIdx < len(s2) && s2[loIdx] < lo {
			loIdx++
		}
		if hiIdx < loIdx {
			hiIdx = loIdx
		}
		for hiIdx < len(s2) && s2[hiIdx] <= hi {
			hiIdx++
		}
		out += int64(hiIdx - loIdx)
	}
	return out
}

// directBytesPerKey is the byte budget of a resident side's direct-address
// forms (FormOf). It bounds memory, not speed: a direct-address side holds at
// most four times the sorted block's bytes, 8 B a key.
const directBytesPerKey = 32

// Form is the layout a resident side seals into.
type Form int

const (
	Merge Form = iota + 1 // the sorted block, swept by the merge engine
	Table                 // the rank table (ranktable.go), 2 B a slot
	Dense                 // the dense count window (hashengine.go), 4 B a slot
)

// slotBytes is a direct-address form's bytes per value of its span.
var slotBytes = [...]uint64{Table: 2, Dense: 4}

// FormOf is the one rule for the form a side of n keys over [lo, hi] takes
// under cond. The condition names the family: a pure equality (join.Equi, a
// zero-width band) the dense window, a wider band or an inequality the rank
// table, any other condition the sorted block. A side takes its family's
// direct-address form while that fits the budget, judged on the whole side,
// and the sorted block otherwise. An empty side fits, so an empty side's form
// is its condition's family.
//
// One refusal is not the rule's: a rank table cannot count more than 65,535
// keys in any one of its 256 key ranges, which (lo, hi, n) cannot show, and a
// side it refuses seals into the sorted block.
func FormOf(cond join.Condition, lo, hi join.Key, n int) Form {
	form := Merge
	switch c := cond.(type) {
	case join.Equi:
		form = Dense
	case join.Band:
		form = Table
		if c.Beta == 0 {
			form = Dense
		}
	case join.Inequality:
		form = Table
	}
	if form == Merge || form.fits(lo, hi, n) {
		return form
	}
	return Merge
}

// fits is the budget of direct-address form f: a slot per value of the span,
// hi − lo + 1 of them, costs at most directBytesPerKey bytes a key. The slot
// bytes divide the budget, so slots × slot bytes ≤ budget × n is the
// comparison below, which cannot overflow on any span.
func (f Form) fits(lo, hi join.Key, n int) bool {
	return n == 0 || uint64(hi)-uint64(lo) < directBytesPerKey/slotBytes[f]*uint64(n)
}

// Resident is the side of a count join held while the other side streams
// past it: Insert its chunks as they arrive, Seal it, then Probe each chunk of
// the other relation and Finish it — the counts sum to |R1 ⋈ R2| however
// either side was chunked, and the form it seals into does not depend on the
// chunking either. Insert only keeps a chunk; Seal builds the side once, in
// the form FormOf picks from the whole side.
//   - Dense counts into a dense window (hashengine.go), Table into a rank
//     table (ranktable.go). Either counts a probe chunk on arrival.
//   - Merge: Seal sorts the side's keys into one block of exactly their size,
//     and a probe relation is swept over it once, at Finish.
//
// The side owns the chunks it streams: a chunk handed to Insert or Probe
// comes from bufpool.Keys, and the side returns it there once it has counted
// or copied it — at Seal for a base chunk, at once or at Finish for a probe
// chunk — or when the side is dropped. A block handed to Seal or Finish is
// lent for that call only; no sealed form holds a chunk of either kind.
// The side stamps its Build and Probe stages on the clock it was built with.
type Resident struct {
	cond    join.Condition
	r1      bool         // the resident side is relation 1
	forced  Form         // tests only: the form Seal takes, not FormOf's; 0: FormOf's
	cache   *BuildCache  // shares a direct-address form by content; nil: never
	clk     *stage.Clock // stamped after each call; nil: not
	key     buildKey     // with a cache: the digest of every chunk so far
	span    keySpan      // every chunk so far, gathered as each arrives
	runs    [][]join.Key // the chunks kept until Seal, in arrival order
	dense   *denseWindow // Dense: the sealed side
	table   *rankTable   // Table: the sealed side
	base    []join.Key   // Merge: the sealed side, sorted
	pending [][]join.Key // Merge: the probe chunks kept for Finish
}

// NewResident returns an empty side, with R1 resident if r1 and R2 otherwise,
// which seals into the form FormOf gives cond and its keys. With a cache, a
// direct-address form is shared with every side of identical content and
// form: the side digests each chunk it is handed, in whatever order, as the
// content key.
func NewResident(cond join.Condition, r1 bool, cache *BuildCache, clk *stage.Clock) *Resident {
	return &Resident{cond: cond, r1: r1, cache: cache, clk: clk}
}

// Insert hands the side one chunk of its relation, which it owns from here
// on and keeps until Seal. Must not be called after Seal.
func (r *Resident) Insert(keys []join.Key) {
	r.gather(keys)
	r.runs = append(r.runs, keys)
	r.clk.Mark(stage.Build)
}

// gather reads one chunk once: for its span and, with a cache, its digest in
// the same pass.
func (r *Resident) gather(keys []join.Key) {
	if r.cache == nil {
		r.span = r.span.plus(keySpanOf(keys))
		return
	}
	d, s := digestKeys(keys)
	r.key, r.span = r.key.plus(d), r.span.plus(s)
}

// Seal completes the side with blocks, lent, as its last keys; Probe and
// Finish are valid from here on. A side FormOf gives a direct-address form
// seals into it, immutable: on a cache hit it becomes the shared side of
// identical content and form, counting nothing, and on a miss it counts its
// keys and publishes its own. A Merge side, or one the rank table refuses, is
// the job's own: its keys sorted into one block. Every sealed form is exactly
// sized. The form is judged on the span gathered as each chunk arrived, so
// the seal does not read the kept chunks again, and a cache hit reads each
// key once, in that gathering.
func (r *Resident) Seal(blocks ...[]join.Key) {
	defer r.clk.Mark(stage.Build)
	defer releaseAll(r.runs)
	for _, b := range blocks {
		r.gather(b)
	}
	runs := append(r.runs[:len(r.runs):len(r.runs)], blocks...)
	r.runs = nil
	lo, hi, n := r.span.lo, r.span.hi, r.span.n
	form := r.forced
	if form == 0 {
		form = FormOf(r.cond, lo, hi, n)
	}
	key := cacheKey{r.key, form}
	switch form {
	case Dense:
		if r.dense = cacheGet[*denseWindow](r.cache, key); r.dense == nil {
			r.dense = cacheAdd(r.cache, key, newDenseWindow(runs, lo, hi, n))
		}
		return
	case Table:
		if r.table = cacheGet[*rankTable](r.cache, key); r.table != nil {
			return
		}
		if t := newRankTable(runs, lo, hi, n); t != nil {
			r.table = cacheAdd(r.cache, key, t)
			return
		}
	}
	r.base = make([]join.Key, 0, n)
	for _, run := range runs {
		r.base = append(r.base, run...)
	}
	sortKeys(r.base, len(runs) > 1)
}

// sortKeys sorts one whole relation. One already sorted as a whole (a
// stream window the worker sorted to summarize it, a stage-1 share from one
// sender) is left as it is: the check is one read of the keys. One that
// arrived in chunks is a one-shot job's, and such jobs recur: its scratch
// (and the probe side's gathered block) is pooled. A stream's frame or an
// owned block sorts through a fresh scratch the GC takes back, as pooled ones
// would pin a window's worth each.
func sortKeys(keys []join.Key, chunked bool) {
	if slices.IsSorted(keys) {
		return
	}
	if !chunked {
		keysort.Sort(keys)
		return
	}
	scratch := bufpool.Keys.Get(len(keys))
	keysort.SortWithScratch(keys, scratch)
	bufpool.Keys.Put(scratch)
}

// Probe hands the sealed side one chunk of the other relation, which it owns
// from here on, with more of that relation to come before Finish. A
// direct-address form counts the chunk and pools it at once, reporting its
// count and keys; the merge form keeps it for Finish's one sweep, since a
// sweep per chunk would walk the whole side every time, and reports neither.
func (r *Resident) Probe(keys []join.Key) (count int64, pooled int) {
	if r.dense == nil && r.table == nil {
		r.pending = append(r.pending, keys)
		r.clk.Mark(stage.Probe)
		return 0, 0
	}
	defer release(keys)
	return r.Finish(keys), len(keys)
}

// Finish ends a probe relation with blocks, lent, as its last keys: it counts
// them and every chunk Probe kept, which go back to the pool. The side stays
// sealed for the next relation. The merge form sorts a lone block in place;
// calls with no chunk kept are safe concurrently on distinct blocks.
func (r *Resident) Finish(blocks ...[]join.Key) (count int64) {
	defer r.clk.Mark(stage.Probe)
	if r.dense == nil && r.table == nil {
		return r.sweep(blocks)
	}
	for _, b := range blocks {
		if r.dense != nil {
			count += r.dense.probe(b)
		} else {
			count += r.table.probeCount(b, r.cond, r.r1)
		}
	}
	return count
}

// sweep is the merge form's Finish: the kept chunks and blocks, gathered into
// one pooled block unless there is just one, sorted and swept once.
func (r *Resident) sweep(blocks [][]join.Key) (count int64) {
	all := append(r.pending[:len(r.pending):len(r.pending)], blocks...)
	keys, chunked := []join.Key(nil), len(all) > 1 || len(r.pending) > 0
	if len(all) == 1 {
		keys = all[0]
	} else {
		n := 0
		for _, c := range all {
			n += len(c)
		}
		keys = bufpool.Keys.Get(n)[:0]
		for _, c := range all {
			keys = append(keys, c...)
		}
		defer bufpool.Keys.Put(keys)
	}
	sortKeys(keys, chunked)
	if r.r1 {
		count = CountSorted(r.base, keys, r.cond)
	} else {
		count = CountSorted(keys, r.base, r.cond)
	}
	releaseAll(r.pending)
	r.pending = nil
	return count
}

// Mark stamps s on the side's clock, for a step its driver takes between
// calls (a stream window's summary, ahead of Finish).
func (r *Resident) Mark(s stage.Stage) { r.clk.Mark(s) }

// Drop returns every chunk the side holds to the pool: it abandons a side
// before its seal, or ends a probe relation that Finish never closed, leaving
// a sealed side sealed. A nil side holds none.
func (r *Resident) Drop() {
	if r != nil {
		releaseAll(append(r.runs, r.pending...))
		r.runs, r.pending = nil, nil
	}
}

// release returns a chunk the side was handed, and is done with, to its pool.
var release = bufpool.Keys.Put

func releaseAll(chunks [][]join.Key) {
	for _, keys := range chunks {
		release(keys)
	}
}

// NestedLoopCount is the O(n1·n2) reference implementation used by tests as
// ground truth.
func NestedLoopCount(r1, r2 []join.Key, cond join.Condition) int64 {
	var out int64
	for _, a := range r1 {
		for _, b := range r2 {
			if cond.Matches(a, b) {
				out++
			}
		}
	}
	return out
}
