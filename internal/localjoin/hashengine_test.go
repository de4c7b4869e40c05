package localjoin

import (
	"sync"
	"sync/atomic"
	"testing"

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

// TestEquiLike is the engine choice where it is made: the pure-equality
// conditions, and they alone, get the hash form of a resident side.
func TestEquiLike(t *testing.T) {
	cases := []struct {
		cond join.Condition
		want bool
	}{
		{join.Equi{}, true},
		{join.NewBand(0), true},
		{join.NewBand(1), false},
		{join.NewBand(2), false},
		{join.Inequality{Op: join.Less}, false},
		{join.Inequality{Op: join.GreaterEq}, false},
		{join.Shifted{Inner: join.Equi{}, Scale: 2}, false},
	}
	for _, c := range cases {
		if got := EquiLike(c.cond); got != c.want {
			t.Errorf("EquiLike(%v) = %v, want %v", c.cond, got, c.want)
		}
		for _, r1 := range []bool{true, false} {
			if hash := NewResident(c.cond, r1).build != nil; hash != c.want {
				t.Errorf("NewResident(%v, %v) takes the hash form: %v, want %v", c.cond, r1, hash, c.want)
			}
		}
	}
}

// TestInsertChunkInvariance pins the incremental API's core contract: chunk
// boundaries must not affect the finished build. The same relation inserted
// whole, key-by-key, or in random splits produces identical probe counts.
func TestInsertChunkInvariance(t *testing.T) {
	r1 := dupHeavyKeys(700, 50)
	probe := dupHeavyKeys(500, 51)
	want := NestedLoopCount(r1, probe, join.Equi{})

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
