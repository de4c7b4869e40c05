package localjoin

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ewh/internal/join"
	"ewh/internal/stats"
)

// dupHeavyKeys draws keys from a tiny domain so almost every key repeats —
// the multiplicity-table stress shape.
func dupHeavyKeys(n int, seed uint64) []join.Key {
	return randKeys(n, 8, seed)
}

// signedKeys mixes negative and positive keys around zero, exercising the
// sign-biased partitioning digit.
func signedKeys(n int, seed uint64) []join.Key {
	r := stats.NewRNG(seed)
	out := make([]join.Key, n)
	for i := range out {
		out[i] = r.Int64n(200) - 100
	}
	return out
}

func TestEquiLike(t *testing.T) {
	cases := []struct {
		cond join.Condition
		want bool
	}{
		{join.Equi{}, true},
		{join.NewBand(0), true},
		{join.NewBand(1), false},
		{join.Inequality{Op: join.Less}, false},
	}
	for _, c := range cases {
		if got := EquiLike(c.cond); got != c.want {
			t.Errorf("EquiLike(%v) = %v, want %v", c.cond, got, c.want)
		}
	}
}

func TestEngineCountMatchesNestedLoop(t *testing.T) {
	cases := []struct {
		name   string
		r1, r2 []join.Key
	}{
		{"random", randKeys(500, 100, 40), randKeys(400, 100, 41)},
		{"dup-heavy", dupHeavyKeys(600, 42), dupHeavyKeys(500, 43)},
		{"all-duplicate", make([]join.Key, 300), make([]join.Key, 200)},
		{"negative", signedKeys(400, 44), signedKeys(300, 45)},
		{"empty-r1", nil, randKeys(50, 10, 46)},
		{"empty-r2", randKeys(50, 10, 47), nil},
		{"both-empty", nil, nil},
	}
	for _, c := range cases {
		want := NestedLoopCount(c.r1, c.r2, join.Equi{})
		if got := EngineCount(c.r1, c.r2); got != want {
			t.Errorf("%s: EngineCount = %d, want %d", c.name, got, want)
		}
		// Symmetry: the equi count cannot depend on build/probe side choice.
		if got := EngineCount(c.r2, c.r1); got != want {
			t.Errorf("%s: EngineCount swapped = %d, want %d", c.name, got, want)
		}
	}
}

func TestEngineCountProperty(t *testing.T) {
	f := func(r1, r2 []int64) bool {
		k1 := make([]join.Key, len(r1))
		for i, v := range r1 {
			k1[i] = v % 64
		}
		k2 := make([]join.Key, len(r2))
		for i, v := range r2 {
			k2[i] = v % 64
		}
		return EngineCount(k1, k2) == NestedLoopCount(k1, k2, join.Equi{})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInsertChunkInvariance pins the incremental API's core contract: chunk
// boundaries must not affect the finished build. The same relation inserted
// whole, key-by-key, or in random splits produces identical probe counts.
func TestInsertChunkInvariance(t *testing.T) {
	r1 := dupHeavyKeys(700, 50)
	probe := dupHeavyKeys(500, 51)
	want := EngineCount(r1, probe)

	rng := stats.NewRNG(52)
	for trial := 0; trial < 10; trial++ {
		b := NewBuild()
		for lo := 0; lo < len(r1); {
			hi := lo + 1 + int(rng.Int64n(100))
			if hi > len(r1) {
				hi = len(r1)
			}
			b.Insert(r1[lo:hi])
			lo = hi
		}
		b.Seal()
		if got := b.ProbeCount(probe); got != want {
			t.Fatalf("trial %d: chunked ProbeCount = %d, want %d", trial, got, want)
		}
		if b.Len() != int64(len(r1)) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, b.Len(), len(r1))
		}
		if b.MemBytes() <= 0 {
			t.Fatalf("trial %d: MemBytes = %d, want > 0", trial, b.MemBytes())
		}
	}
}

// TestProbeBeforeSeal pins incremental probing: against a part-built build,
// ProbeCount must count exactly the inserted prefix's matches.
func TestProbeBeforeSeal(t *testing.T) {
	r1 := dupHeavyKeys(400, 53)
	probe := dupHeavyKeys(300, 54)
	b := NewBuild()
	half := len(r1) / 2
	b.Insert(r1[:half])
	if got, want := b.ProbeCount(probe), NestedLoopCount(r1[:half], probe, join.Equi{}); got != want {
		t.Fatalf("mid-build ProbeCount = %d, want %d", got, want)
	}
	b.Insert(r1[half:])
	b.Seal()
	if got, want := b.ProbeCount(probe), NestedLoopCount(r1, probe, join.Equi{}); got != want {
		t.Fatalf("sealed ProbeCount = %d, want %d", got, want)
	}
}

// TestConcurrentBuildProbe runs a probe goroutine against a build that is
// still inserting — the insert-while-probe contract. Under -race this is the
// publication-safety proof; the count assertions pin monotonicity (a probe
// never sees more matches than the full build has) and the exact final
// count.
func TestConcurrentBuildProbe(t *testing.T) {
	r1 := dupHeavyKeys(20000, 60)
	probe := dupHeavyKeys(2000, 61)
	full := NestedLoopCount(r1, probe, join.Equi{})

	b := NewBuild()
	var sealed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const chunk = 256
		for lo := 0; lo < len(r1); lo += chunk {
			hi := lo + chunk
			if hi > len(r1) {
				hi = len(r1)
			}
			b.Insert(r1[lo:hi])
		}
		b.Seal()
		sealed.Store(true)
	}()
	for {
		done := sealed.Load()
		if got := b.ProbeCount(probe); got > full {
			t.Errorf("mid-build ProbeCount = %d exceeds full count %d", got, full)
			break
		}
		if done {
			break
		}
	}
	wg.Wait()
	if got := b.ProbeCount(probe); got != full {
		t.Fatalf("sealed ProbeCount = %d, want %d", got, full)
	}
}

// TestPairTablePartners checks the ordering layer against a reference index:
// every key's partner list is exactly its arrival indices, ascending.
func TestPairTablePartners(t *testing.T) {
	keys := append(dupHeavyKeys(500, 70), signedKeys(200, 71)...)
	tab := NewPairTable(keys)
	if tab.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(keys))
	}
	want := make(map[join.Key][]uint32)
	for i, k := range keys {
		want[k] = append(want[k], uint32(i))
	}
	for k, w := range want {
		got := tab.Partners(k)
		if len(got) != len(w) {
			t.Fatalf("Partners(%d) = %v, want %v", k, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("Partners(%d) = %v, want %v", k, got, w)
			}
		}
	}
	for _, absent := range []join.Key{1 << 40, -(1 << 40), 12345} {
		if _, ok := want[absent]; !ok && tab.Partners(absent) != nil {
			t.Fatalf("Partners(%d) = %v for an absent key", absent, tab.Partners(absent))
		}
	}
	if NewPairTable(nil).Partners(0) != nil {
		t.Fatal("empty table returned partners")
	}
}

// FuzzEngineCount cross-checks the hash engine (one-shot and chunk-split
// incremental) against the nested-loop oracle on fuzz-chosen key bytes.
func FuzzEngineCount(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{1, 2, 3}, uint8(3))
	f.Add([]byte{}, []byte{0, 0, 0, 0}, uint8(1))
	f.Add([]byte{255, 255, 128, 0}, []byte{255, 128}, uint8(0))
	f.Fuzz(func(t *testing.T, b1, b2 []byte, split uint8) {
		if len(b1) > 1024 || len(b2) > 1024 {
			t.Skip()
		}
		// Single bytes widen to a key domain that mixes signs and collides
		// often; the exact values are irrelevant, coverage of dup/sign
		// patterns is the point.
		mk := func(bs []byte) []join.Key {
			out := make([]join.Key, len(bs))
			for i, v := range bs {
				out[i] = join.Key(int64(v) - 128)
			}
			return out
		}
		r1, r2 := mk(b1), mk(b2)
		want := NestedLoopCount(r1, r2, join.Equi{})
		if got := EngineCount(r1, r2); got != want {
			t.Fatalf("EngineCount = %d, want %d", got, want)
		}
		bld := NewBuild()
		step := int(split)%7 + 1
		for lo := 0; lo < len(r1); lo += step {
			hi := lo + step
			if hi > len(r1) {
				hi = len(r1)
			}
			bld.Insert(r1[lo:hi])
		}
		bld.Seal()
		if got := bld.ProbeCount(r2); got != want {
			t.Fatalf("chunked ProbeCount = %d, want %d", got, want)
		}
	})
}
