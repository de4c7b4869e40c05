// Package localjoin provides the algorithms each machine runs over its
// region's tuples. The partitioning schemes are orthogonal to the local join
// (§IV "Local Join Algorithm"): a count uses the hash join for pure equality
// conditions, a rank table for a band or inequality side of bounded span, and
// the sort-merge monotonic join otherwise.
package localjoin

import (
	"slices"

	"ewh/internal/bufpool"
	"ewh/internal/join"
	"ewh/internal/keysort"
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
// forms: a side takes one when a slot per value of its span costs at most this
// many bytes a key, judged on the whole side. It is the sparse hash form's own
// worst case, 12 B a slot just after a doubling at 3/8 load. At 4 B a slot the
// dense Build gets denseSpan slots a key, at 2 B the rank table tableSpan.
const directBytesPerKey = 32

// Resident is the side of a count join held while the other side streams
// past it: Insert its chunks as they arrive, Seal it, then ProbeCount each
// chunk of the other relation — the counts sum to |R1 ⋈ R2| however either
// side was chunked, and the form it seals into does not depend on the
// chunking either. The hash form (EquiLike conditions) is a Build: a chunk
// counts in on arrival while the dense form holds the keys so far, and once
// one would not, it and every later chunk are kept until Seal judges the whole
// block, then extends the dense window once or converts once. A band or
// inequality side keeps the chunks it is given until Seal counts them into a
// rank table (ranktable.go) when their span is at most tableSpan slots per
// key, and a probe chunk then counts on arrival. Any other side is the merge
// form: Seal copies the chunks into one sorted block of exactly their size,
// and a probe relation is swept over it once, when its last chunk is in.
type Resident struct {
	cond    join.Condition
	r1      bool         // the resident side is relation 1
	form    residentForm // the form it started in
	build   *Build       // hash form; nil otherwise
	runs    [][]join.Key // the chunks kept until Seal, in arrival order
	table   *rankTable   // table form: the sealed side
	base    []join.Key   // merge form: the sealed side, sorted
	pending [][]join.Key // merge form: the probe chunks kept for their last
}

// NewResident returns an empty side, with R1 resident if r1 and R2 otherwise,
// in the form the condition takes: hash exactly when EquiLike(cond), a rank
// table or a sorted block for a band or inequality as Seal finds the keys'
// span, and a sorted block for any other condition.
func NewResident(cond join.Condition, r1 bool) *Resident {
	form := formMerge
	switch {
	case EquiLike(cond):
		form = formDense
	case ranked(cond):
		form = formRanked
	}
	return newResident(cond, form, r1)
}

// residentForm is the layout a resident side starts in.
type residentForm int

const (
	formMerge  residentForm = iota // sorted block, swept by the merge engine
	formRanked                     // rank table under the budget rule, else formMerge
	formTable                      // rank table whatever the span (tests only)
	formDense                      // a Build, dense until its keys are not
	formSparse                     // a Build, sparse from the first key
)

// newResident is NewResident with the starting form forced; cond must be
// EquiLike for either Build form, and ranked for either table form.
func newResident(cond join.Condition, form residentForm, r1 bool) *Resident {
	r := &Resident{cond: cond, r1: r1, form: form}
	if form == formDense || form == formSparse {
		r.build = NewBuild()
	}
	if form == formSparse {
		r.build.toSparse()
	}
	return r
}

// Insert adds one chunk and reports whether the side kept the slice itself
// instead of copying the keys out: a kept chunk must stay untouched until
// Seal returns, when it is the caller's again. Must not be called after Seal.
func (r *Resident) Insert(keys []join.Key) (kept bool) {
	if r.build != nil && len(r.runs) == 0 && r.build.insert(keys) {
		return false
	}
	r.runs = append(r.runs, keys)
	return true
}

// Seal completes the side; ProbeCount is valid from here on.
func (r *Resident) Seal() { r.SealShared(nil, BuildKey{}) }

// SealShared is Seal for a side whose content key the caller digested from
// every chunk it inserted, kept or not. A hash or table side is immutable once
// sealed: on a cache hit it becomes the shared side of identical content and
// form (a hash side's wasted inserts overlapped the wire anyway, and the
// chunks either held are never counted), on a miss it counts them and
// publishes its own. A merge side is the job's own.
func (r *Resident) SealShared(cache *BuildCache, key BuildKey) {
	held := r.runs
	r.runs = nil
	if r.build == nil {
		r.sealKept(held, cache, key)
		return
	}
	if cached := cacheGet[*Build](cache, key); cached != nil {
		r.build = cached
		return
	}
	r.build.insertHeld(held)
	r.build.Seal()
	r.build = cacheAdd(cache, key, r.build)
}

// sealKept seals the runs of a side that is not a Build, into the table form
// when its form allows and its keys fit, else into the merge form. Either is
// exactly sized and holds no chunk: a pooled chunk of whatever capacity goes
// back to its pool instead of staying pinned under it. Only a side bound for
// the table form looks in the cache.
func (r *Resident) sealKept(runs [][]join.Key, cache *BuildCache, key BuildKey) {
	if r.form != formMerge {
		lo, hi, n := keyRange(runs)
		if r.form == formTable || tableFits(lo, hi, n) {
			if r.table = cacheGet[*rankTable](cache, key); r.table != nil {
				return
			}
			if t := newRankTable(runs, lo, hi, n); t != nil {
				r.table = cacheAdd(cache, key, t)
				return
			}
		}
	}
	r.base = slices.Concat(runs...)
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

// ProbeCount takes one chunk of the other relation; more says that further
// chunks of it follow before its count is needed. The counts returned up to
// the call with more false sum to the relation's matches with the sealed side:
// the hash and table forms count each chunk as it comes; the merge form keeps
// a chunk that has successors — as Insert keeps one, until that last call
// returns — and sweeps them all then, since a sweep per chunk would walk the
// whole side every time. It may reorder keys.
func (r *Resident) ProbeCount(keys []join.Key, more bool) (count int64, kept bool) {
	if r.build != nil {
		return r.build.ProbeCount(keys), false
	}
	if r.table != nil {
		return r.table.probeCount(keys, r.cond, r.r1), false
	}
	if more {
		r.pending = append(r.pending, keys)
		return 0, true
	}
	chunked := len(r.pending) > 0
	if chunked {
		n := len(keys)
		for _, c := range r.pending {
			n += len(c)
		}
		all := bufpool.Keys.Get(n)[:0]
		defer bufpool.Keys.Put(all)
		for _, c := range r.pending {
			all = append(all, c...)
		}
		keys, r.pending = append(all, keys...), nil
	}
	sortKeys(keys, chunked)
	if r.r1 {
		return CountSorted(r.base, keys, r.cond), false
	}
	return CountSorted(keys, r.base, r.cond), false
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
