package exec

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func TestKeyBufferPoolRoundTrip(t *testing.T) {
	s := GetKeyBuffer(64)
	if len(s) != 64 {
		t.Fatalf("length %d, want 64", len(s))
	}
	PutKeyBuffer(s)
	PutKeyBuffer(nil) // zero-cap buffers must be a no-op, not a pool entry
	s2 := GetKeyBuffer(16)
	if len(s2) != 16 {
		t.Fatalf("length %d, want 16", len(s2))
	}
}

// TestKeyClass pins the size classes: a class's capacity covers the request
// by at most a quarter more, a capacity maps back to its own class, and
// classes grow with the request.
func TestKeyClass(t *testing.T) {
	ns := []int{0, 1, 63, 64, 65, 79, 80, 81, 127, 128, 129, 1000, 1 << 20, 1<<20 + 1, 400_000, 2_000_000}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 2000 {
		ns = append(ns, 1+rng.IntN(1<<30))
	}
	for _, n := range ns {
		class, size := keyClass(n)
		if class < 0 || class >= len(keyPools) {
			t.Fatalf("keyClass(%d) = class %d, outside the %d pools", n, class, len(keyPools))
		}
		if m := max(n, minKeyBuffer); size < m || 4*size > 5*m {
			t.Fatalf("keyClass(%d) = size %d, want within [%d, 1.25·%d]", n, size, m, m)
		}
		if c2, s2 := keyClass(size); c2 != class || s2 != size {
			t.Fatalf("keyClass(%d) = (%d, %d), but its size maps to (%d, %d)", n, class, size, c2, s2)
		}
		if n > minKeyBuffer {
			if below, _ := keyClass(n - 1); below > class {
				t.Fatalf("keyClass(%d) = %d below keyClass(%d) = %d", n, class, n-1, below)
			}
		}
	}
}

// TestKeyBufferServedFromItsClass recycles buffers of many sizes from several
// goroutines at once, as the shuffle's mappers and a worker's readers do, and
// checks every request gets a buffer of its own class: never a smaller one
// (which would have to be dropped) nor a much bigger one (which it would pin).
func TestKeyBufferServedFromItsClass(t *testing.T) {
	sizes := []int{100, 5_000, 70_000, 400_000, 90_000, 3, 1000, 999}
	errs := make(chan error, 4)
	for g := range 4 {
		go func() {
			for i := range 50 {
				n := sizes[(g+i)%len(sizes)]
				s := GetKeyBuffer(n)
				if _, size := keyClass(n); len(s) != n || cap(s) != size {
					errs <- fmt.Errorf("GetKeyBuffer(%d): len %d cap %d, want len %d cap %d", n, len(s), cap(s), n, size)
					return
				}
				PutKeyBuffer(s)
				PutKeyBuffer(make([]int64, 1000)) // not a class size: left to the collector
			}
			errs <- nil
		}()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
