package partition

import (
	"testing"

	"ewh/internal/join"
	"ewh/internal/stats"
)

func TestNewHashValidation(t *testing.T) {
	if _, err := NewHash(0, nil); err == nil {
		t.Error("j=0 accepted")
	}
	if _, err := NewBroadcast(0); err == nil {
		t.Error("broadcast j=0 accepted")
	}
}

func TestHashPairMeetsExactlyOnce(t *testing.T) {
	h, err := NewHash(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	for k := join.Key(-100); k <= 100; k++ {
		w1 := route(h, 1, k, rng)
		w2 := route(h, 2, k, rng)
		if len(w1) != 1 || len(w2) != 1 || w1[0] != w2[0] {
			t.Fatalf("key %d: R1 targets %v, R2 targets %v", k, w1, w2)
		}
	}
}

func TestHashHeavyKeyHandling(t *testing.T) {
	heavy := []join.Key{7, 42}
	h, err := NewHash(4, heavy)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "HashPRPD" {
		t.Fatalf("name %s", h.Name())
	}
	rng := stats.NewRNG(2)
	// Heavy R2 tuples broadcast everywhere.
	w2 := route(h, 2, 7, rng)
	if len(w2) != 4 {
		t.Fatalf("heavy R2 targets %v, want all 4", w2)
	}
	// Heavy R1 tuples scatter: over many routings every worker appears.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		w1 := route(h, 1, 7, rng)
		if len(w1) != 1 {
			t.Fatal("heavy R1 tuple replicated")
		}
		seen[w1[0]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("heavy R1 scatter hit %d/4 workers", len(seen))
	}
	// A heavy pair still meets exactly once: R1 copy at one worker, R2 copy
	// at every worker.
	w1 := route(h, 1, 42, rng)
	w2 = route(h, 2, 42, rng)
	common := 0
	for _, a := range w1 {
		for _, b := range w2 {
			if a == b {
				common++
			}
		}
	}
	if common != 1 {
		t.Fatalf("heavy pair meets %d times", common)
	}
}

func TestDetectHeavyKeys(t *testing.T) {
	keys := make([]join.Key, 0, 1000)
	for i := 0; i < 900; i++ {
		keys = append(keys, join.Key(i)) // 900 distinct light keys
	}
	for i := 0; i < 100; i++ {
		keys = append(keys, 5000) // one key with 10% of the mass
	}
	heavy := DetectHeavyKeys(keys, 0.05)
	if len(heavy) != 1 || heavy[0] != 5000 {
		t.Fatalf("heavy keys %v, want [5000]", heavy)
	}
	if DetectHeavyKeys(nil, 0.1) != nil {
		t.Error("nil input produced keys")
	}
	if DetectHeavyKeys(keys, 0) != nil {
		t.Error("zero fraction produced keys")
	}
}

func TestBroadcastRouting(t *testing.T) {
	b, err := NewBroadcast(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	if got := route(b, 2, 9, rng); len(got) != 4 {
		t.Fatalf("R2 broadcast to %d workers", len(got))
	}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		w := route(b, 1, join.Key(i), rng)
		if len(w) != 1 {
			t.Fatal("R1 tuple replicated")
		}
		seen[w[0]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("R1 scatter hit %d/4 workers", len(seen))
	}
	if b.Name() != "Broadcast" || b.Workers() != 4 {
		t.Error("metadata wrong")
	}
}
