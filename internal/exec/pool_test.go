package exec

import "testing"

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
