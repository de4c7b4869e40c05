package partition

import (
	"fmt"
	"testing"

	"ewh/internal/join"
	"ewh/internal/matrix"
	"ewh/internal/stats"
	"ewh/internal/tiling"
)

// route routes one key through s's batch router for relation rel — the only
// routing path a scheme has — and returns its receivers, having checked the
// batch's Counts against them.
func route(s Scheme, rel int, k join.Key, rng *stats.RNG) []int {
	var b RouteBatch
	b.Reset(s.Workers(), 1)
	if rel == 2 {
		s.RouteBatchR2([]join.Key{k}, rng, &b)
	} else {
		s.RouteBatchR1([]join.Key{k}, rng, &b)
	}
	var out []int
	for _, w := range b.Receivers(0) {
		out = append(out, int(w))
		b.Counts[w]--
	}
	for w, c := range b.Counts {
		if c != 0 {
			panic(fmt.Sprintf("route: worker %d tallied %+d beside the receiver list %v", w, c, out))
		}
	}
	if len(b.Groups) != 1 {
		panic(fmt.Sprintf("route: %d group ids recorded for one key", len(b.Groups)))
	}
	return out
}

func TestNewCIGrid(t *testing.T) {
	cases := []struct {
		j, rows, cols int
	}{
		{1, 1, 1}, {4, 2, 2}, {16, 4, 4}, {32, 4, 8}, {64, 8, 8},
		{6, 2, 3}, {7, 1, 7}, // primes degrade to a single grid row
	}
	for _, c := range cases {
		ci := NewCI(c.j)
		r, co := ci.Grid()
		if r != c.rows || co != c.cols {
			t.Errorf("NewCI(%d) grid %dx%d, want %dx%d", c.j, r, co, c.rows, c.cols)
		}
		if ci.Workers() > c.j {
			t.Errorf("NewCI(%d) uses %d workers", c.j, ci.Workers())
		}
	}
}

func TestCIRouting(t *testing.T) {
	ci := NewCI(8) // 2x4
	rng := stats.NewRNG(1)
	rows, cols := ci.Grid()
	for i := 0; i < 200; i++ {
		w1 := route(ci, 1, join.Key(i), rng)
		if len(w1) != cols {
			t.Fatalf("R1 tuple replicated to %d workers, want %d", len(w1), cols)
		}
		// All targets share one grid row.
		row := w1[0] / cols
		for _, w := range w1 {
			if w/cols != row {
				t.Fatal("R1 targets span multiple grid rows")
			}
		}
		w2 := route(ci, 2, join.Key(i), rng)
		if len(w2) != rows {
			t.Fatalf("R2 tuple replicated to %d workers, want %d", len(w2), rows)
		}
		col := w2[0] % cols
		for _, w := range w2 {
			if w%cols != col {
				t.Fatal("R2 targets span multiple grid columns")
			}
		}
	}
}

func TestCIEveryPairMeetsOnce(t *testing.T) {
	// For any routing outcome, |targets(t1) ∩ targets(t2)| == 1.
	ci := NewCI(12)
	rng := stats.NewRNG(2)
	for i := 0; i < 100; i++ {
		w1 := route(ci, 1, 0, rng)
		w2 := route(ci, 2, 0, rng)
		common := 0
		for _, a := range w1 {
			for _, b := range w2 {
				if a == b {
					common++
				}
			}
		}
		if common != 1 {
			t.Fatalf("pair meets at %d workers, want exactly 1", common)
		}
	}
}

func TestCIRandomRowsCoverGrid(t *testing.T) {
	ci := NewCI(16)
	rng := stats.NewRNG(3)
	rows, cols := ci.Grid()
	seen := make([]bool, rows)
	for i := 0; i < 500; i++ {
		w := route(ci, 1, join.Key(i), rng)
		seen[w[0]/cols] = true
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("grid row %d never chosen in 500 draws", r)
		}
	}
}

// makeRegions builds a small hand-crafted partitioning:
//
//	R1 keys [0,100) × R2 keys [0,50)   -> region 0
//	R1 keys [0,100) × R2 keys [50,100) -> region 1
//	R1 keys [100,200) × R2 keys [0,100)-> region 2
func makeRegions() []tiling.Region {
	return []tiling.Region{
		{Rect: matrix.Rect{}, RowLo: 0, RowHi: 100, ColLo: 0, ColHi: 50},
		{Rect: matrix.Rect{}, RowLo: 0, RowHi: 100, ColLo: 50, ColHi: 100},
		{Rect: matrix.Rect{}, RowLo: 100, RowHi: 200, ColLo: 0, ColHi: 100},
	}
}

func TestRegionSchemeRouting(t *testing.T) {
	s := NewRegionScheme("CSIO", makeRegions())
	if s.Name() != "CSIO" || s.Workers() != 3 {
		t.Fatalf("name=%s workers=%d", s.Name(), s.Workers())
	}
	cases := []struct {
		k  join.Key
		r1 []int // expected R1 targets (sorted)
		r2 []int
	}{
		{25, []int{0, 1}, []int{0, 2}},
		{75, []int{0, 1}, []int{1, 2}},
		{150, []int{2}, []int{0, 2}}, // col 150 out of range clamps to top slab {1,2}? no: [50,100) is top
	}
	_ = cases
	check := func(got []int, want ...int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("targets %v, want %v", got, want)
		}
		m := map[int]bool{}
		for _, g := range got {
			m[g] = true
		}
		for _, w := range want {
			if !m[w] {
				t.Fatalf("targets %v, want %v", got, want)
			}
		}
	}
	check(route(s, 1, 25, nil), 0, 1)
	check(route(s, 1, 150, nil), 2)
	check(route(s, 2, 25, nil), 0, 2)
	check(route(s, 2, 75, nil), 1, 2)
	// Out-of-range keys clamp to edge slabs.
	check(route(s, 1, -10, nil), 0, 1)
	check(route(s, 1, 999, nil), 2)
	check(route(s, 2, -10, nil), 0, 2)
	check(route(s, 2, 999, nil), 1, 2)
}

func TestRegionSchemePairMeetsExactlyOnce(t *testing.T) {
	s := NewRegionScheme("CSIO", makeRegions())
	for k1 := join.Key(0); k1 < 200; k1 += 7 {
		for k2 := join.Key(0); k2 < 100; k2 += 7 {
			w1 := route(s, 1, k1, nil)
			w2 := route(s, 2, k2, nil)
			common := 0
			for _, a := range w1 {
				for _, b := range w2 {
					if a == b {
						common++
					}
				}
			}
			if common != 1 {
				t.Fatalf("pair (%d,%d) meets at %d workers", k1, k2, common)
			}
		}
	}
}

func TestRegionSchemeEmpty(t *testing.T) {
	s := NewRegionScheme("CSIO", nil)
	if s.Workers() != 0 {
		t.Fatal("empty scheme has workers")
	}
	if got := route(s, 1, 5, nil); len(got) != 0 {
		t.Fatalf("empty scheme routed to %v", got)
	}
}

// TestRoutingDrawsPerKey pins the RNG consumption every runtime's
// reproducible routes rest on: CI on both sides, and Broadcast's and a heavy
// Hash key's R1 scatter, take exactly one draw per key; every other routing
// decision takes none.
func TestRoutingDrawsPerKey(t *testing.T) {
	heavy, err := NewHash(4, []join.Key{7})
	if err != nil {
		t.Fatal(err)
	}
	bcast, err := NewBroadcast(4)
	if err != nil {
		t.Fatal(err)
	}
	keys := []join.Key{7, 7, 3, 9, 7} // three of the five are Hash-heavy
	for _, c := range []struct {
		name       string
		s          Scheme
		rel, draws int
	}{
		{"CI R1", NewCI(8), 1, 5}, {"CI R2", NewCI(8), 2, 5},
		{"Broadcast R1", bcast, 1, 5}, {"Broadcast R2", bcast, 2, 0},
		{"heavy Hash R1", heavy, 1, 3}, {"heavy Hash R2", heavy, 2, 0},
		{"regions R1", NewRegionScheme("CSIO", makeRegions()), 1, 0},
		{"regions R2", NewRegionScheme("CSIO", makeRegions()), 2, 0},
	} {
		rng, ref := stats.NewRNG(5), stats.NewRNG(5)
		var b RouteBatch
		b.Reset(c.s.Workers(), len(keys))
		if c.rel == 2 {
			RouteBatchR2(c.s, keys, rng, &b)
		} else {
			RouteBatchR1(c.s, keys, rng, &b)
		}
		for i := 0; i < c.draws; i++ {
			ref.Uint64()
		}
		if rng.Uint64() != ref.Uint64() {
			t.Errorf("%s: routing %d keys did not take exactly %d draws", c.name, len(keys), c.draws)
		}
	}
}

// benchRoute times one RouteBatchR1 call per 1024-key shard and reports it
// per key.
func benchRoute(b *testing.B, s Scheme, domain int) {
	keys := make([]join.Key, 1024)
	for i := range keys {
		keys[i] = join.Key(i * 7 % domain)
	}
	rng := stats.NewRNG(1)
	var rb RouteBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(keys) {
		rb.Reset(s.Workers(), len(keys))
		s.RouteBatchR1(keys, rng, &rb)
	}
}

func BenchmarkRegionSchemeRouting(b *testing.B) {
	regions := make([]tiling.Region, 64)
	for i := range regions {
		regions[i] = tiling.Region{
			RowLo: join.Key(i * 100), RowHi: join.Key((i + 1) * 100),
			ColLo: join.Key(i * 100), ColHi: join.Key((i + 1) * 100),
		}
	}
	benchRoute(b, NewRegionScheme("CSIO", regions), 6400)
}

func BenchmarkCIRouting(b *testing.B) { benchRoute(b, NewCI(32), 1<<20) }
