package localjoin

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"ewh/internal/bufpool"
	"ewh/internal/join"
	"ewh/internal/keysort"
	"ewh/internal/stage"
	"ewh/internal/stats"
)

// key is the one alias the adversarial-order generators below produce, so the
// whole table would follow a change of key type.
type key = join.Key

// chunked splits keys into runs of at most size keys (0: one chunk).
func chunked(keys []key, size int) [][]key {
	if size <= 0 || len(keys) == 0 {
		return [][]key{keys}
	}
	var out [][]key
	for ; len(keys) > size; keys = keys[size:] {
		out = append(out, keys[:size])
	}
	return append(out, keys)
}

// residentForms are every form a side is tested in, each forced whatever
// FormOf says; formServes says which conditions each serves.
var residentForms = []Form{Merge, Table, Dense}

func (f Form) String() string {
	return [...]string{"by rule", "merge", "table", "dense"}[f]
}

// formServes reports whether a side in form counts under cond: a
// direct-address form serves its family's conditions, the merge form every
// condition.
func formServes(form Form, cond join.Condition) bool {
	return form == Merge || FormOf(cond, 0, 0, 0) == form
}

// newResident is NewResident with the form forced; cond must be of form's
// family (formServes).
func newResident(cond join.Condition, form Form, r1 bool, cache *BuildCache, clk *stage.Clock) *Resident {
	r := NewResident(cond, r1, cache, clk)
	r.forced = form
	return r
}

// spanCap bounds the span of a side the tests force into a direct-address
// form, which takes a slot per value of its span: the sparse and domain-edge
// rows stay off it, as FormOf's budget keeps them off in use.
const spanCap = 1 << 16

// fitsForced reports whether a side of keys may be forced into form.
func fitsForced(form Form, keys []key) bool {
	return form == Merge || spanOf(keys) <= spanCap
}

// spanOf is the distance from the least to the greatest of keys; 0 if none.
func spanOf(keys []key) uint64 {
	if len(keys) == 0 {
		return 0
	}
	return uint64(slices.Max(keys)) - uint64(slices.Min(keys))
}

// probeOrder is the order each probe chunk's keys reach a side in.
type probeOrder int

const (
	arrivalOrder probeOrder = iota
	keyOrder
	reverseKeyOrder
)

func (o probeOrder) String() string {
	return [...]string{"arrival", "key", "reverse key"}[o]
}

// residentCount joins r1 and r2 through a Resident — in the given form, with
// R1 or R2 resident — in chunks of chunk keys, and fails t unless the side
// returned every chunk it streamed, once, and nothing else (releaseWatch).
func residentCount(t testing.TB, r1, r2 []key, cond join.Condition, form Form, residentR1 bool, chunk int) int64 {
	return residentCountIn(t, r1, r2, cond, form, residentR1, chunk, arrivalOrder)
}

// residentCountIn is residentCount with each probe chunk in the given order.
// Odd chunk sizes stream every chunk of either relation but its last, which
// Seal or Finish borrows; even ones stream every resident chunk and make each
// probe chunk a probe relation of its own, which its Finish borrows. Both
// relations are copied: a side may sort what it is lent.
func residentCountIn(t testing.TB, r1, r2 []key, cond join.Condition, form Form, residentR1 bool, chunk int, order probeOrder) int64 {
	resident, probe := r1, r2
	if !residentR1 {
		resident, probe = r2, r1
	}
	w := watchReleases(t)
	defer w.check(fmt.Sprintf("%v, %v, R1 resident %v, chunks of %d in %v order", cond, form, residentR1, chunk, order))
	odd := chunk%2 == 1
	side := newResident(cond, form, residentR1, nil, nil)
	parts, lent := chunked(slices.Clone(resident), chunk), [][]key(nil)
	if odd {
		parts, lent = parts[:len(parts)-1], parts[len(parts)-1:]
	}
	for _, c := range parts {
		side.Insert(w.own(c))
	}
	side.Seal(lent...)
	var out int64
	parts = chunked(slices.Clone(probe), chunk)
	for i, c := range parts {
		switch order {
		case keyOrder:
			slices.Sort(c)
		case reverseKeyOrder:
			slices.Sort(c)
			slices.Reverse(c)
		}
		if !odd || i == len(parts)-1 {
			out += side.Finish(c)
			continue
		}
		before := w.keys
		n, pooled := side.Probe(w.own(c))
		if w.keys-before != pooled {
			t.Errorf("%v, %v: Probe reported %d keys pooled, returned %d", cond, form, pooled, w.keys-before)
		}
		out += n
	}
	return out
}

// abandonResident drops a side twice over — before its seal, and after its
// seal while it may hold probe chunks for Finish — and fails t unless either
// side returned every chunk it was handed.
func abandonResident(t testing.TB, r1, r2 []key, cond join.Condition, form Form, residentR1 bool, chunk int) {
	resident, probe := r1, r2
	if !residentR1 {
		resident, probe = r2, r1
	}
	row := fmt.Sprintf("%v, %v, R1 resident %v, chunks of %d", cond, form, residentR1, chunk)
	w := watchReleases(t)
	side := newResident(cond, form, residentR1, nil, nil)
	for _, c := range chunked(resident, chunk) {
		side.Insert(w.own(c))
	}
	side.Drop()
	w.check(row + ", dropped before its seal")
	w = watchReleases(t)
	side = newResident(cond, form, residentR1, nil, nil)
	side.Seal(slices.Clone(resident))
	for _, c := range chunked(probe, chunk) {
		side.Probe(w.own(c))
	}
	side.Drop()
	w.check(row + ", dropped amid a probe")
}

// releaseWatch stands in for release while a test drives a side: it knows
// each chunk the test streamed by its first element, and counts what the
// side hands back.
type releaseWatch struct {
	t     testing.TB
	prev  func([]key)
	back  map[*key]int // a streamed chunk: the times it came back
	keys  int          // keys of the streamed chunks that came back
	stray int          // slices that came back but were never streamed
}

// watchReleases swaps release for a watch until its check.
func watchReleases(t testing.TB) *releaseWatch {
	w := &releaseWatch{t: t, prev: release, back: map[*key]int{}}
	release = func(s []key) {
		p := unsafe.SliceData(s)
		n, ok := w.back[p]
		if !ok {
			w.stray++
			return
		}
		w.back[p] = n + 1
		w.keys += len(s)
	}
	return w
}

// own copies c into a buffer from bufpool.Keys, as a worker decodes a frame,
// for the side to own.
func (w *releaseWatch) own(c []key) []key {
	s := bufpool.Keys.Get(len(c))
	copy(s, c)
	w.back[unsafe.SliceData(s)] = 0
	return s
}

// check restores release and fails the test unless every streamed chunk came
// back exactly once and nothing else came back.
func (w *releaseWatch) check(row string) {
	release = w.prev
	lost, twice := 0, 0
	for _, n := range w.back {
		switch {
		case n == 0:
			lost++
		case n > 1:
			twice++
		}
	}
	if lost+twice+w.stray > 0 {
		w.t.Errorf("%s: of %d streamed chunks %d never came back and %d more than once; %d slices never streamed came back",
			row, len(w.back), lost, twice, w.stray)
	}
}

// ascendingKeys is the ascending row's relation: every key twice, from -20 up.
func ascendingKeys(n int) []key {
	out := make([]key, n)
	for i := range out {
		out[i] = key(i/2) - 20
	}
	return out
}

// keyOrders are the generators of the adversarial key-order table. form is
// the form an equi side seals into over the first half of the row's keys,
// then over all of them (TestBuildFormPerKeyOrder).
var keyOrders = []struct {
	name string
	form string
	gen  func(n int, seed uint64) []key
}{
	{"ascending", "dense", func(n int, _ uint64) []key { return ascendingKeys(n) }},
	{"descending", "dense", func(n int, _ uint64) []key {
		out := make([]key, n)
		for i := range out {
			out[i] = key((n-i)/2) - 20
		}
		return out
	}},
	{"shuffled", "dense", func(n int, seed uint64) []key {
		out := ascendingKeys(n)
		rng := stats.NewRNG(seed)
		for i := n - 1; i > 0; i-- {
			j := rng.Int64n(int64(i + 1))
			out[i], out[j] = out[j], out[i]
		}
		return out
	}},
	{"random", "dense", func(n int, seed uint64) []key { return randKeys(n, 100, seed) }},
	{"dup-heavy", "dense", func(n int, seed uint64) []key { return dupHeavyKeys(n, seed) }},
	{"signed", "dense", func(n int, seed uint64) []key { return signedKeys(n, seed) }},
	{"all-equal", "dense", func(n int, _ uint64) []key {
		out := make([]key, n)
		for i := range out {
			out[i] = 7
		}
		return out
	}},
	{"two-valued", "dense", func(n int, _ uint64) []key {
		out := make([]key, n)
		for i := range out {
			out[i] = []key{-3, 5}[i%2]
		}
		return out
	}},
	// Every key lands in one radix bucket of the sort's first pass: the low
	// byte is the digit it sorts by.
	{"equal-low-digit", "merge", func(n int, seed uint64) []key {
		out := randKeys(n, 40, seed)
		for i := range out {
			out[i] = (out[i]-20)<<8 | 0x5A
		}
		return out
	}},
	{"sparse", "merge", func(n int, seed uint64) []key { return sparseKeys(n, seed) }},
	{"dense-then-sparse", "dense, then merge", func(n int, seed uint64) []key {
		return append(ascendingKeys(n/2), sparseKeys(n-n/2, seed)...)
	}},
	// Keys past ±2^61, where an inequality's joinable range once stopped.
	{"past-2^61", "merge", func(n int, seed uint64) []key {
		edges := []key{math.MinInt64 / 2, math.MinInt64/4 - 1, math.MinInt64 / 4, -1, 0, 1,
			math.MaxInt64 / 4, math.MaxInt64/4 + 1, math.MaxInt64 / 2}
		out := make([]key, n)
		rng := stats.NewRNG(seed)
		for i := range out {
			out[i] = edges[rng.Int64n(int64(len(edges)))]
		}
		return out
	}},
	{"int64-extremes", "merge", func(n int, seed uint64) []key {
		edges := []key{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2, -1, 0, 1,
			math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64}
		out := make([]key, n)
		rng := stats.NewRNG(seed)
		for i := range out {
			out[i] = edges[rng.Int64n(int64(len(edges)))]
		}
		return out
	}},
	// Keys of a narrow span at an int64 end: a table side of them counts R2
	// keys over the converse range, which must reach the extremes.
	{"near-int64-min", "dense", func(n int, seed uint64) []key {
		out := randKeys(n, 100, seed)
		for i := range out {
			out[i] += math.MinInt64
		}
		return out
	}},
	{"near-int64-max", "dense", func(n int, seed uint64) []key {
		out := randKeys(n, 100, seed)
		for i := range out {
			out[i] = math.MaxInt64 - out[i]
		}
		return out
	}},
	{"empty", "dense", func(int, uint64) []key { return nil }},
}

// TestBuildFormPerKeyOrder pins which form an equi side of each key-order
// row seals into, over half its keys and over all of them: the rows the table
// calls dense stay in the dense window, the ones past its budget seal into
// the sorted block from their first half on, and dense-then-sparse crosses
// the budget in its second half.
func TestBuildFormPerKeyOrder(t *testing.T) {
	for i, g := range keyOrders {
		keys := g.gen(90, uint64(2*i+1))
		got := sealedForm(sealChunked(keys[:len(keys)/2], join.Equi{}, true, 0)).String()
		if last := sealedForm(sealChunked(keys, join.Equi{}, true, len(keys)/2)).String(); last != got {
			got += ", then " + last
		}
		if got != g.form {
			t.Errorf("%s: an equi side of its keys seals into %s, want %s", g.name, got, g.form)
		}
	}
}

// TestResidentFormBySpan pins which form a side seals into: a band or
// inequality side the rank table while its span is under 16 slots per key
// (2 B each) and no key range holds more keys than a 2-byte slot counts, an
// equi side the dense window while its span is under 8 slots per key (4 B
// each), and either the sorted block otherwise. FormOf gives each row's
// sealed form, but for the slot overflow: there it says Table and the seal
// refuses. Each row's count is checked against Count with either relation
// resident.
func TestResidentFormBySpan(t *testing.T) {
	// spread is n keys from 0 to span, both ends included.
	spread := func(n int, span int64) []key {
		out := make([]key, n)
		for i := range out {
			out[i] = span * int64(i) / int64(n-1)
		}
		return out
	}
	repeated := func(k key, n int) []key { return slices.Repeat([]key{k}, n) }
	// firstRange fills the first of the 256 key ranges of a span of 2^19 - 1
	// (2048 keys each) with n keys, and puts one more at the span's end.
	firstRange := func(n int) []key {
		out := make([]key, n+1)
		for i := range n {
			out[i] = key(i % 2048)
		}
		out[n] = 1<<19 - 1
		return out
	}
	band := join.NewBand(2)
	rows := []struct {
		name string
		keys []key
		cond join.Condition
		form Form
		full bool // a key range overflows its 2-byte slots
	}{
		{"span 16n - 1", spread(1000, 15999), band, Table, false},
		{"span 16n", spread(1000, 16000), band, Merge, false},
		{"inequality, span 16n - 1", spread(1000, 15999), join.Inequality{Op: join.Less}, Table, false},
		{"inequality, span 16n", spread(1000, 16000), join.Inequality{Op: join.GreaterEq}, Merge, false},
		{"a range holding 2^16 - 1 keys", firstRange(1<<16 - 1), band, Table, false},
		{"a range holding 2^16 keys", firstRange(1 << 16), band, Merge, true},
		{"one key repeated 2^16 - 1 times", repeated(7, 1<<16-1), band, Table, false},
		{"one key repeated 2^16 times", repeated(7, 1<<16), band, Merge, true},
		// Its slot wraps to 0 and the range sums to 1: only the slots'
		// total, short of n, refuses it.
		{"one key repeated 2^16 times beside another", append(repeated(7, 1<<16), 9), band, Merge, true},
		{"beta wider than a range", spread(1000, 8000), join.NewBand(100), Table, false},
		{"an empty resident", nil, band, Table, false},
		{"equi, span 8n - 1", spread(1000, 7999), join.Equi{}, Dense, false},
		{"equi, span 8n", spread(1000, 8000), join.Equi{}, Merge, false},
		{"zero-width band, span 8n", spread(1000, 8000), join.NewBand(0), Merge, false},
		{"equi, an empty resident", nil, join.Equi{}, Dense, false},
	}
	for _, row := range rows {
		rule := row.form
		if row.full {
			rule = Table
		}
		s := keySpanOf(row.keys)
		if got := FormOf(row.cond, s.lo, s.hi, s.n); got != rule {
			t.Errorf("%s: FormOf = %v, want %v", row.name, got, rule)
		}
		probe := randKeys(500, 16200, 9)
		for i := range probe {
			probe[i] -= 100
		}
		// Keys within β of the repeated key, whose slot a table that
		// ignored the wrap would count as empty.
		probe = append(probe, 5, 7, 9, 11)
		for _, residentR1 := range []bool{true, false} {
			side := sealChunked(row.keys, row.cond, residentR1, 0)
			if got := sealedForm(side); got != row.form {
				t.Errorf("%s: sealed into the %s form, want %s", row.name, got, row.form)
			}
			got := side.Finish(slices.Clone(probe))
			want := Count(row.keys, probe, row.cond)
			if !residentR1 {
				want = Count(probe, row.keys, row.cond)
			}
			if got != want {
				t.Errorf("%s, R1 resident %v: count %d, want %d", row.name, residentR1, got, want)
			}
		}
	}
}

// sealedForm is the form a sealed side counts in.
func sealedForm(r *Resident) Form {
	switch {
	case r.dense != nil:
		return Dense
	case r.table != nil:
		return Table
	}
	return Merge
}

// sealChunked seals a side of keys, streamed as chunks of chunk keys (0: one
// chunk), under cond, and returns it.
func sealChunked(keys []key, cond join.Condition, residentR1 bool, chunk int) *Resident {
	side := NewResident(cond, residentR1, nil, nil)
	for _, c := range pooledChunks(keys, chunk) {
		side.Insert(c)
	}
	side.Seal()
	return side
}

// pooledChunks is keys in chunks of chunk keys (0: one chunk), each copied
// into a buffer of its own from bufpool.Keys, for a side to own.
func pooledChunks(keys []key, chunk int) [][]key {
	out := chunked(keys, chunk)
	for i, c := range out {
		out[i] = append(bufpool.Keys.Get(len(c))[:0], c...)
	}
	return out
}

// TestResidentFormIndependentOfChunking feeds each block as 1, 2, 4 and 8
// chunks: the direct-address budget is judged on the whole block, so the side
// seals into one form and counts one total whatever the chunking. An equi
// block under 8 slots per key stays dense though its first chunk alone spans
// more, and a band or inequality block under 16 takes the rank table.
func TestResidentFormIndependentOfChunking(t *testing.T) {
	const n = 4000
	// block is n keys in random order over [0, n × slots], both ends included.
	block := func(slots float64, seed uint64) []key {
		span := int64(slots * n)
		out := randKeys(n, span+1, seed)
		out[0], out[n/2] = span, 0
		return out
	}
	band, less := join.NewBand(2), join.Inequality{Op: join.Less}
	rows := []struct {
		name string
		keys []key
		cond join.Condition
		form Form
	}{
		{"equi, 4 slots per key", block(4, 21), join.Equi{}, Dense},
		{"equi, 7.9 slots per key", block(7.9, 22), join.Equi{}, Dense},
		{"zero-width band, 7.9 slots per key", block(7.9, 23), join.NewBand(0), Dense},
		{"equi, 8.1 slots per key", block(8.1, 24), join.Equi{}, Merge},
		{"band, 8.5 slots per key", block(8.5, 25), band, Table},
		{"band, 15.9 slots per key", block(15.9, 26), band, Table},
		{"inequality, 8.5 slots per key", block(8.5, 27), less, Table},
		{"inequality, 15.9 slots per key", block(15.9, 28), less, Table},
		{"band, 16.5 slots per key", block(16.5, 29), band, Merge},
	}
	for _, row := range rows {
		probe := randKeys(3000, int64(17*n), 30)
		for _, residentR1 := range []bool{true, false} {
			want := Count(row.keys, probe, row.cond)
			if !residentR1 {
				want = Count(probe, row.keys, row.cond)
			}
			for _, parts := range []int{1, 2, 4, 8} {
				side := sealChunked(row.keys, row.cond, residentR1, (n+parts-1)/parts)
				if got := sealedForm(side); got != row.form {
					t.Errorf("%s in %d chunks, R1 resident %v: sealed %s, want %s", row.name, parts, residentR1, got, row.form)
				}
				if got := side.Finish(slices.Clone(probe)); got != want {
					t.Errorf("%s in %d chunks, R1 resident %v: count %d, want %d", row.name, parts, residentR1, got, want)
				}
			}
		}
	}
}

// TestResidentKeyOrderTable drives every count entry point — the resident
// side in every form, with either relation resident, under three chunkings,
// plus Count and CountSorted — over every pair of adversarial key orders and
// every condition, against the nested-loop oracle.
func TestResidentKeyOrderTable(t *testing.T) {
	conds := []join.Condition{
		join.Equi{}, join.NewBand(0), join.NewBand(1), join.NewBand(3),
		join.Inequality{Op: join.Less}, join.Inequality{Op: join.LessEq},
		join.Inequality{Op: join.Greater}, join.Inequality{Op: join.GreaterEq},
	}
	chunkings := []int{0, 17, 16, 1} // one chunk, many (one probe round, or a round each), single-key chunks
	for i, g1 := range keyOrders {
		for j, g2 := range keyOrders {
			r1, r2 := g1.gen(90, uint64(2*i+1)), g2.gen(70, uint64(2*j+100))
			s1, s2 := slices.Clone(r1), slices.Clone(r2)
			keysort.Sort(s1)
			keysort.Sort(s2)
			for _, cond := range conds {
				row := fmt.Sprintf("%s x %s, %v", g1.name, g2.name, cond)
				want := NestedLoopCount(r1, r2, cond)
				if got := Count(r1, r2, cond); got != want {
					t.Errorf("%s: Count = %d, want %d", row, got, want)
				}
				if got := CountSorted(s1, s2, cond); got != want {
					t.Errorf("%s: CountSorted = %d, want %d", row, got, want)
				}
				for _, form := range residentForms {
					if !formServes(form, cond) {
						continue
					}
					for _, residentR1 := range []bool{true, false} {
						resident := r2
						if residentR1 {
							resident = r1
						}
						if !fitsForced(form, resident) {
							continue
						}
						for _, chunk := range chunkings {
							if got := residentCount(t, r1, r2, cond, form, residentR1, chunk); got != want {
								t.Errorf("%s: resident side (%v, R1 resident %v, chunks of %d) = %d, want %d",
									row, form, residentR1, chunk, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestBandAtTheInt64Extremes names the two cases the table's int64-extremes
// rows generalize: a band's joinable range saturates at the key domain's ends
// instead of wrapping, and Matches cannot overflow into a match.
func TestBandAtTheInt64Extremes(t *testing.T) {
	band := join.NewBand(1)
	if band.Matches(math.MaxInt64, math.MinInt64) {
		t.Error("Band{1} matches MaxInt64 with MinInt64")
	}
	if got := Count([]key{math.MaxInt64}, []key{math.MaxInt64}, band); got != 1 {
		t.Errorf("Count({MaxInt64}, {MaxInt64}, Band{1}) = %d, want 1", got)
	}
	r1, r2 := []key{math.MinInt64}, []key{math.MinInt64, math.MaxInt64}
	if got, oracle := Count(r1, r2, band), NestedLoopCount(r1, r2, band); got != 1 || oracle != 1 {
		t.Errorf("{MinInt64} x {MinInt64, MaxInt64} under Band{1}: Count = %d, oracle = %d, want 1 and 1", got, oracle)
	}
}

// TestStrictInequalityAtTheInt64Extremes names the case the table's
// int64-extremes R1 rows generalize: nothing is above MaxInt64 or below
// MinInt64, so the ±1 of a strict comparison's range must not wrap into one
// that holds every R2 key.
func TestStrictInequalityAtTheInt64Extremes(t *testing.T) {
	r2 := []key{0, 5, 7}
	if got := Count([]key{math.MaxInt64}, r2, join.Inequality{Op: join.Less}); got != 0 {
		t.Errorf("Count({MaxInt64} < {0, 5, 7}) = %d, want 0", got)
	}
	if got := Count([]key{math.MinInt64}, r2, join.Inequality{Op: join.Greater}); got != 0 {
		t.Errorf("Count({MinInt64} > {0, 5, 7}) = %d, want 0", got)
	}
	// The table form's converse ranges, R1 resident: the ±1 must not wrap
	// either.
	r1 := []key{0, 5, 7}
	if got := residentCount(t, r1, []key{math.MinInt64}, join.Inequality{Op: join.Less}, Table, true, 0); got != 0 {
		t.Errorf("{0, 5, 7} < {MinInt64} through an R1 table = %d, want 0", got)
	}
	if got := residentCount(t, r1, []key{math.MaxInt64}, join.Inequality{Op: join.Greater}, Table, true, 0); got != 0 {
		t.Errorf("{0, 5, 7} > {MaxInt64} through an R1 table = %d, want 0", got)
	}
}

// TestInequalityPastTheOldCap holds every inequality's count to the nested
// loop on keys past ±2^61, where JoinableRange once stopped while Matches
// went on: {0} < {MaxInt64, 2^61} is 2, not 0. Each side is resident in the
// merge form, and in the table form where its span lets a test force one.
func TestInequalityPastTheOldCap(t *testing.T) {
	far := []key{math.MinInt64, math.MinInt64/4 - 1, -5, 0, 5, math.MaxInt64/4 + 1, math.MaxInt64}
	if got, want := Count([]key{0}, []key{math.MaxInt64, math.MaxInt64/4 + 1}, join.Inequality{Op: join.Less}), int64(2); got != want {
		t.Errorf("Count({0} < {MaxInt64, 2^61}) = %d, want %d", got, want)
	}
	for op := join.Less; op <= join.GreaterEq; op++ {
		cond := join.Inequality{Op: op}
		for _, r1 := range [][]key{far, {0}, {math.MinInt64}, {math.MaxInt64}} {
			r2 := far
			want := NestedLoopCount(r1, r2, cond)
			if got := Count(r1, r2, cond); got != want {
				t.Errorf("%v, %v x %v: Count = %d, want %d", cond, r1, r2, got, want)
			}
			for _, form := range []Form{Merge, Table} {
				for _, residentR1 := range []bool{true, false} {
					resident := r2
					if residentR1 {
						resident = r1
					}
					if !fitsForced(form, resident) {
						continue
					}
					if got := residentCount(t, r1, r2, cond, form, residentR1, 0); got != want {
						t.Errorf("%v, %v x %v, %v, R1 resident %v: count = %d, want %d", cond, r1, r2, form, residentR1, got, want)
					}
				}
			}
		}
	}
}

// propertyConds are the conditions the property and fuzz tests draw from:
// both equalities, a band, and every inequality.
var propertyConds = []join.Condition{join.Equi{}, join.NewBand(0), join.NewBand(2),
	join.Inequality{Op: join.Less}, join.Inequality{Op: join.LessEq},
	join.Inequality{Op: join.Greater}, join.Inequality{Op: join.GreaterEq}}

// fuzzBetas are the half-widths a fuzz test's wider band takes: the property
// tests' β = 2, and two past 2^62, whose 2β + 1 slots no table holds.
var fuzzBetas = []int64{2, 1 << 62, math.MaxInt64}

func TestResidentProperty(t *testing.T) {
	f := func(a, b []int64, form, sel uint8, residentR1 bool, chunk uint8) bool {
		r1, r2 := make([]key, len(a)), make([]key, len(b))
		for i, v := range a {
			r1[i] = v % 64
		}
		for i, v := range b {
			r2[i] = v % 64
		}
		cond := propertyConds[int(sel)%len(propertyConds)]
		fm := residentForms[int(form)%len(residentForms)]
		if !formServes(fm, cond) {
			fm = Merge
		}
		return residentCount(t, r1, r2, cond, fm, residentR1, int(chunk)%9) == NestedLoopCount(r1, r2, cond)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzEngineCount cross-checks the resident side — every form, either
// relation resident, fuzz-chosen chunking and condition — against the
// nested-loop oracle on fuzz-chosen key bytes, and checks that the form
// NewResident seals into is FormOf's and does not depend on the chunking.
// Each form, with either relation resident, also counts each probe chunk in
// key order and in reverse: a count must not depend on the order a chunk's
// keys come in. Byte keys span at most 256, so every side may be forced into
// a direct-address form, and an equi side of a few keys over a wide span is
// past the dense window's budget, though its first chunks alone may be within
// it; seeds sit at both budgets' edges. With sel's 0x40 bit the bytes at
// either end stand for keys at the int64 extremes and just past ±2^61; a side
// spanning those is only ever the sorted block. Every chunk a side streams
// comes back to the pool exactly once — at Seal, at Finish, counted, or when
// the side is dropped before its seal or amid a probe — and no block a
// terminal call borrows does. split/8 picks the wider band's β from
// fuzzBetas (2 below split 8); seeds hold a table's ends, where a band probe
// leaves its two-slot interior, and a table at either int64 extreme under a β
// past 2^62, where the interior is empty.
func FuzzEngineCount(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{1, 2, 3}, uint8(3), uint8(0))
	f.Add([]byte{}, []byte{0, 0, 0, 0}, uint8(1), uint8(1))
	f.Add([]byte{255, 255, 128, 0}, []byte{255, 128}, uint8(0), uint8(6))
	f.Add([]byte{0, 255, 7, 7}, []byte{255, 0, 8}, uint8(5), uint8(0x84))
	// Dense as a whole (span 30 over 5 keys), too sparse as its first two
	// single-key chunks (span 30 over 2).
	f.Add([]byte{128, 158, 129, 130, 131}, []byte{128, 158}, uint8(1), uint8(0))
	// Past ±2^61 (0x40; the condition is sel mod 7): {0} < {MaxInt64, 2^61}
	// and {0} > {MinInt64, -2^61 - 1} with R1 resident, then R2; and every end
	// key against every end key under <= and >=.
	ends := []byte{0, 1, 2, 3, 127, 128, 129, 252, 253, 254, 255}
	f.Add([]byte{128}, []byte{255, 252}, uint8(0), uint8(0x42))
	f.Add([]byte{128}, []byte{0, 3}, uint8(0), uint8(0x44))
	f.Add([]byte{128}, []byte{255, 252}, uint8(1), uint8(0xC0))
	f.Add([]byte{128}, []byte{0, 3}, uint8(1), uint8(0xC2))
	f.Add(ends, ends, uint8(2), uint8(0x43))
	f.Add(ends, ends, uint8(3), uint8(0xC3))
	// An equi side past the dense budget (span 255 over 4 keys), in one chunk
	// and in single keys.
	f.Add([]byte{0, 255, 10, 200}, []byte{0, 255, 10, 11}, uint8(0), uint8(0))
	f.Add([]byte{0, 255, 10, 200}, []byte{0, 255, 10, 11}, uint8(1), uint8(0))
	// A zero-width band side whose first three chunks alone are dense (span 2
	// over 6 keys) and whole, with {0, 255}, is not: the sorted block must
	// hold every chunk's keys.
	f.Add([]byte{128, 128, 129, 129, 130, 130, 0, 255}, []byte{128, 129, 0, 255, 130}, uint8(2), uint8(1))
	// Sides of 4 keys at the budget's edges, spans 8n - 1, 8n, 16n - 1 and
	// 16n: an equi side (R1 resident) is dense below 8n, a band side (R2
	// resident) a table below 16n.
	for _, span := range []byte{31, 32, 63, 64} {
		side, other := []byte{100, 100 + span, 110, 120}, []byte{99, 100, 120, 100 + span}
		f.Add(side, other, uint8(1), uint8(0))
		f.Add(other, side, uint8(2), uint8(0x82))
	}
	// selOf is the sel that picks propertyConds[c] with flags (0x40, 0x80).
	selOf := func(c int, flags uint8) uint8 {
		x := flags
		for int(x)%len(propertyConds) != c {
			x++
		}
		return x
	}
	// A band-2 table over bytes 100–120 probed at, and within β of, either
	// end and past it, in one chunk and in threes, with either relation
	// resident; an inequality's likewise.
	table, near := []byte{100, 104, 110, 120, 120}, []byte{96, 97, 98, 99, 100, 101, 102, 103, 104, 110, 116, 117, 118, 119, 120, 121, 122, 123, 124}
	for c := 2; c < len(propertyConds); c++ {
		for _, split := range []uint8{0, 3} {
			f.Add(table, near, split, selOf(c, 0))
			f.Add(near, table, split, selOf(c, 0x80))
		}
	}
	// Tables at either int64 extreme (0x40) under β = 2^62 and MaxInt64
	// (split 8 and 16): no key is interior.
	top, bottom, far := []byte{253, 254, 255}, []byte{0, 1, 2}, []byte{0, 1, 2, 3, 127, 128, 252, 253, 254, 255}
	for _, split := range []uint8{8, 16, 19} {
		f.Add(top, far, split, selOf(2, 0x40))
		f.Add(far, top, split, selOf(2, 0xC0))
		f.Add(bottom, far, split, selOf(2, 0x40))
		f.Add(far, bottom, split, selOf(2, 0xC0))
	}
	conds := propertyConds
	f.Fuzz(func(t *testing.T, b1, b2 []byte, split, sel uint8) {
		if len(b1) > 1024 || len(b2) > 1024 {
			t.Skip()
		}
		// Single bytes widen to a key domain that mixes signs and collides
		// often; the exact values are irrelevant, coverage of dup/sign
		// patterns is the point.
		mk := func(bs []byte) []key {
			out := make([]key, len(bs))
			for i, v := range bs {
				out[i] = key(int64(v) - 128)
				switch {
				case sel&0x40 == 0:
				case v < 3:
					out[i] = math.MinInt64 + key(v)
				case v == 3:
					out[i] = math.MinInt64/4 - 1
				case v == 252:
					out[i] = math.MaxInt64/4 + 1
				case v > 252:
					out[i] = math.MaxInt64 - key(255-v)
				}
			}
			return out
		}
		r1, r2 := mk(b1), mk(b2)
		cond := conds[int(sel)%len(conds)]
		if b, ok := cond.(join.Band); ok && b.Beta > 0 {
			cond = join.NewBand(fuzzBetas[int(split)/8%len(fuzzBetas)])
		}
		residentR1 := sel&0x80 == 0
		want := NestedLoopCount(r1, r2, cond)
		residentOf := func(residentR1 bool) []key {
			if residentR1 {
				return r1
			}
			return r2
		}
		resident, probe := residentOf(residentR1), residentOf(!residentR1)
		whole := sealedForm(sealChunked(resident, cond, residentR1, 0))
		if s := keySpanOf(resident); whole != FormOf(cond, s.lo, s.hi, s.n) {
			t.Fatalf("%v, R1 resident %v: sealed %v, FormOf says %v", cond, residentR1, whole, FormOf(cond, s.lo, s.hi, s.n))
		}
		side := sealChunked(resident, cond, residentR1, int(split)%8)
		if got := sealedForm(side); got != whole {
			t.Fatalf("%v, R1 resident %v: sealed %v in chunks of %d, %v in one", cond, residentR1, got, int(split)%8, whole)
		}
		if got := side.Finish(slices.Clone(probe)); got != want {
			t.Fatalf("%v, R1 resident %v, chunks of %d, %v by rule: count = %d, want %d", cond, residentR1, int(split)%8, whole, got, want)
		}
		for _, form := range residentForms {
			if !formServes(form, cond) {
				continue
			}
			if fitsForced(form, resident) {
				if got := residentCount(t, r1, r2, cond, form, residentR1, int(split)%8); got != want {
					t.Fatalf("%v, %v, R1 resident %v, chunks of %d: count = %d, want %d",
						cond, form, residentR1, int(split)%8, got, want)
				}
				abandonResident(t, r1, r2, cond, form, residentR1, int(split)%8)
			}
			for _, r1Resident := range []bool{true, false} {
				if !fitsForced(form, residentOf(r1Resident)) {
					continue
				}
				for _, order := range []probeOrder{keyOrder, reverseKeyOrder} {
					if got := residentCountIn(t, r1, r2, cond, form, r1Resident, int(split)%8, order); got != want {
						t.Fatalf("%v, %v, R1 resident %v, chunks of %d in %v order: count = %d, want %d",
							cond, form, r1Resident, int(split)%8, order, got, want)
					}
				}
			}
		}
	})
}
