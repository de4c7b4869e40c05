// Package stage names the spans a plan or a worker job spends its time in,
// and records the nanoseconds of each (DESIGN.md "Stage records").
package stage

import "time"

// Stage is one span of a planner's or a worker job's time.
type Stage uint8

// The planner's stages in the order planCSIO runs them, then a worker job's.
const (
	Sample       Stage = iota // R1's input sample and histogram (CSI: both relations')
	MultisetWait              // the wait for R2's multiset, and R2's histogram read off it
	StreamSample              // Stream-Sample's output sample and m
	Matrix                    // the sample matrix MS
	Coarsen                   // MS coarsened to MC
	Regionalize               // MC tiled into regions
	Admit                     // a job's wait for an admission slot
	FrameWait                 // a job's wait for its next frame, chunk or contribution
	Build                     // inserting into and sealing the resident side
	Probe                     // probing it, or joining a pairs or plan job's runs
	Summarize                 // summarizing a window or a plan job's matches
	Route                     // routing a plan job's matches and contributing them
	Reply                     // writing a reply
	NumStages

	FirstJob = Admit // the first of the stages a REPLY carries
)

// Record is the nanoseconds spent in each stage.
type Record [NumStages]int64

// Span is the time of stages from through to.
func (r *Record) Span(from, to Stage) (d time.Duration) {
	for s := from; s <= to; s++ {
		d += time.Duration(r[s])
	}
	return d
}

// Total is the time of every stage.
func (r *Record) Total() time.Duration { return r.Span(0, NumStages-1) }

// Add adds o's time to r, stage by stage.
func (r *Record) Add(o *Record) {
	for s := range r {
		r[s] += o[s]
	}
}

// Clock divides the time of the goroutine that owns it between stages: each
// Mark charges the time since the previous one, or since Start, to a stage.
type Clock struct {
	Record
	last time.Time
}

// Start returns a clock whose first mark counts from now.
func Start() Clock { return Clock{last: time.Now()} }

// Mark charges the time since the previous mark to s. A nil clock stamps
// nothing.
func (c *Clock) Mark(s Stage) {
	if c != nil {
		now := time.Now()
		c.Record[s] += int64(now.Sub(c.last))
		c.last = now
	}
}
