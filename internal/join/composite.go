package join

import (
	"fmt"
	"math"
	"math/bits"
)

// CompositeSpec describes an equality+band condition over two attributes,
// e.g. BEOCD in the paper: O1.custkey = O2.custkey AND
// |O1.ship_priority - O2.ship_priority| <= 2.
//
// The pair is encoded onto one monotonic key as primary*stride + secondary,
// with stride the smallest power of two above SecondaryMax+Beta. That keeps
// the join semantics exact: two encoded keys are within Beta iff the
// primaries are equal and the secondaries differ by at most Beta. The encoded
// condition is an ordinary Band, so the whole EWH machinery applies unchanged.
type CompositeSpec struct {
	// SecondaryMax is the largest value the secondary (band) attribute takes;
	// secondaries must lie in [0, SecondaryMax].
	SecondaryMax int64
	// Beta is the band half-width on the secondary attribute.
	Beta int64
}

// Validate checks the spec describes a faithful encoding.
func (s CompositeSpec) Validate() error {
	if s.SecondaryMax < 0 {
		return fmt.Errorf("join: composite secondary max %d < 0", s.SecondaryMax)
	}
	if s.Beta < 0 {
		return fmt.Errorf("join: composite beta %d < 0", s.Beta)
	}
	if s.SecondaryMax > math.MaxInt64/4 || s.Beta > math.MaxInt64/4 {
		return fmt.Errorf("join: composite secondary max %d + beta %d leaves no room for a primary", s.SecondaryMax, s.Beta)
	}
	return nil
}

// shift is log₂ of the stride.
func (s CompositeSpec) shift() int {
	return bits.Len64(uint64(s.SecondaryMax + s.Beta))
}

// Encode maps (primary, secondary) to the composite key.
func (s CompositeSpec) Encode(primary, secondary int64) Key {
	return primary<<s.shift() + secondary
}

// Decode splits a composite key back into (primary, secondary). The shift
// floors, so a negative primary decodes to itself.
func (s CompositeSpec) Decode(k Key) (primary, secondary int64) {
	sh := s.shift()
	return k >> sh, k & (1<<sh - 1)
}

// Condition returns the band condition over encoded keys that is equivalent
// to "primary equal AND |secondary difference| <= Beta".
func (s CompositeSpec) Condition() Condition {
	return Band{Beta: s.Beta}
}
