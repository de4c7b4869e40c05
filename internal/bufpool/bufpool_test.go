package bufpool

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// pair has the shape of exec.PairIdx: a two-field struct element.
type pair struct{ I1, I2 uint32 }

var pairs Pool[pair]

func TestKeyBufferPoolRoundTrip(t *testing.T) {
	s := Keys.Get(64)
	if len(s) != 64 {
		t.Fatalf("length %d, want 64", len(s))
	}
	Keys.Put(s)
	Keys.Put(nil) // zero-cap buffers must be a no-op, not a pool entry
	s2 := Keys.Get(16)
	if len(s2) != 16 {
		t.Fatalf("length %d, want 16", len(s2))
	}
}

// TestKeyClass pins the size classes: a class's capacity covers the request
// by at most a quarter more, a capacity maps back to its own class, and
// classes grow with the request. The classes count elements, so a Get of
// either element type has exactly its class's capacity.
func TestKeyClass(t *testing.T) {
	ns := []int{0, 1, 63, 64, 65, 79, 80, 81, 127, 128, 129, 1000, 1 << 20, 1<<20 + 1, 400_000, 2_000_000}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 2000 {
		ns = append(ns, 1+rng.IntN(1<<30))
	}
	for _, n := range ns {
		c, size := class(n)
		if c < 0 || c >= len(Keys.classes) {
			t.Fatalf("class(%d) = %d, outside the %d pools", n, c, len(Keys.classes))
		}
		if m := max(n, minLen); size < m || 4*size > 5*m {
			t.Fatalf("class(%d) = size %d, want within [%d, 1.25·%d]", n, size, m, m)
		}
		if c2, s2 := class(size); c2 != c || s2 != size {
			t.Fatalf("class(%d) = (%d, %d), but its size maps to (%d, %d)", n, c, size, c2, s2)
		}
		if n > minLen {
			if below, _ := class(n - 1); below > c {
				t.Fatalf("class(%d) = %d below class(%d) = %d", n, c, n-1, below)
			}
		}
	}
	fixed := ns[:13] // up to 2^20 elements
	t.Run("int64", func(t *testing.T) { getsItsClass(t, &Keys, fixed) })
	t.Run("pair", func(t *testing.T) { getsItsClass(t, &pairs, fixed) })
}

func getsItsClass[E any](t *testing.T, p *Pool[E], ns []int) {
	for _, n := range ns {
		s := p.Get(n)
		if _, size := class(n); len(s) != n || cap(s) != size {
			t.Fatalf("Get(%d): len %d cap %d, want len %d cap %d", n, len(s), cap(s), n, size)
		}
		p.Put(s)
	}
}

// TestKeyBufferServedFromItsClass recycles buffers of many sizes from several
// goroutines at once, as the shuffle's mappers and a worker's readers do, and
// checks every request gets a buffer of its own class: never a smaller one
// (which would have to be dropped) nor a much bigger one (which it would pin).
func TestKeyBufferServedFromItsClass(t *testing.T) {
	t.Run("int64", func(t *testing.T) { servedFromItsClass(t, &Keys) })
	t.Run("pair", func(t *testing.T) { servedFromItsClass(t, &pairs) })
}

func servedFromItsClass[E any](t *testing.T, p *Pool[E]) {
	sizes := []int{100, 5_000, 70_000, 400_000, 90_000, 3, 1000, 999}
	errs := make(chan error, 4)
	for g := range 4 {
		go func() {
			for i := range 50 {
				n := sizes[(g+i)%len(sizes)]
				s := p.Get(n)
				if _, size := class(n); len(s) != n || cap(s) != size {
					errs <- fmt.Errorf("Get(%d): len %d cap %d, want len %d cap %d", n, len(s), cap(s), n, size)
					return
				}
				p.Put(s)
				p.Put(make([]E, 1000)) // not a class size: left to the collector
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
