package netexec_test

import (
	"testing"

	"ewh/internal/faultnet/scenario"
)

// TestPoolConcurrentSessionsBitIdentical: two tenants' sessions over one
// admission-controlled fleet run the same drawn job at once — count, pairs,
// multiway or stream — and each equals the in-process run per worker, with
// no crossed streams.
func TestPoolConcurrentSessionsBitIdentical(t *testing.T) {
	scenario.RunSeeds(t, scenario.Pin{Runtime: scenario.Pool}, 500, 6)
}
