package planio

import (
	"errors"
	"fmt"

	"ewh/internal/partition"
)

// ErrNeedsReplan marks an artifact that cannot be mechanically re-encoded
// for a smaller fleet: its routing is content-sensitive (a region scheme
// with more regions than surviving workers), so only fresh statistics — or
// the content-insensitive CI fallback of §VI-E — can produce a correct
// replacement. Callers holding the relations replan; callers holding only
// the artifact fall back to CI.
var ErrNeedsReplan = errors.New("planio: plan needs statistics to replan for a smaller fleet")

// ShrinkToFleet re-targets an artifact at a fleet of j workers after some of
// the original workers were excluded. A scheme that already fits is returned
// unchanged. Content-insensitive schemes (Hash, Broadcast, CI) rebuild
// mechanically — their routing depends only on the worker count. A region
// scheme's regions are the exactly-once join unit (merging two regions'
// tuple sets onto one machine manufactures pairs no region contains), so one
// with more regions than survivors returns ErrNeedsReplan.
//
// The seed is preserved — same artifact, smaller fleet, reproducible
// routing.
func ShrinkToFleet(a *Artifact, j int) (*Artifact, error) {
	if a == nil || a.Scheme == nil {
		return nil, fmt.Errorf("planio: shrink of an empty artifact")
	}
	if j < 1 {
		return nil, fmt.Errorf("planio: shrink to %d workers", j)
	}
	if a.Scheme.Workers() <= j {
		return a, nil
	}
	out := &Artifact{Seed: a.Seed}
	switch v := a.Scheme.(type) {
	case *partition.Hash:
		s, err := partition.NewHash(j, v.HeavyKeys())
		if err != nil {
			return nil, fmt.Errorf("planio: shrink hash plan: %w", err)
		}
		out.Scheme = s
	case *partition.Broadcast:
		s, err := partition.NewBroadcast(j)
		if err != nil {
			return nil, fmt.Errorf("planio: shrink broadcast plan: %w", err)
		}
		out.Scheme = s
	case *partition.CI:
		out.Scheme = partition.NewCI(j)
	case *partition.RegionScheme:
		return nil, fmt.Errorf("%w: %d regions, %d surviving workers",
			ErrNeedsReplan, v.Workers(), j)
	default:
		return nil, fmt.Errorf("planio: cannot shrink scheme %T", a.Scheme)
	}
	return out, nil
}
