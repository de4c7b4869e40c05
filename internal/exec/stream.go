package exec

import (
	"fmt"
	"slices"

	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/sample"
	"ewh/internal/stage"
	"ewh/internal/stats"
)

// This file is the runtime surface for CONTINUOUS joins: a long-lived
// stream job that joins an unbounded sequence of tuple windows against a
// static base relation. The caller (see internal/streamjoin) routes each
// window under the currently active plan and ships the per-worker shards;
// workers keep a join-side structure over the base, count each window's
// matches the moment its last shard frame lands, and return a mergeable
// statistics summary of the window alongside the count — the raw material
// for drift detection and mid-stream replanning. Replans are expressed as a
// new EPOCH: the base re-ships routed under the new plan, and every later
// window carries the new epoch tag. In-flight windows drain under the old
// epoch; the transport's per-worker FIFO is the cutover contract.

// StreamSpec opens a continuous windowed join.
type StreamSpec struct {
	// Cond is the join condition; windows are relation 1, the base is
	// relation 2 (the orientation band conditions care about).
	Cond join.Condition
	// Stats seeds the per-worker window summaries drift detection consumes.
	Stats StatsSpec
}

// WindowReply is one worker's result for one window at one epoch.
type WindowReply struct {
	Worker int
	Window uint32
	Epoch  uint32
	// Input is the window-shard tuple count this worker received.
	Input int64
	// Count is the shard's match count against the worker's base shard.
	Count int64
	// Summary summarizes the window shard's keys; nil for an empty shard.
	Summary *stats.Summary
	// Stages is the worker's stage record since its previous window reply.
	Stages stage.Record
}

// StreamHandle is one open continuous-join stream across a worker fleet.
// Calls are not safe for concurrent use; the driver is the single sender.
type StreamHandle interface {
	// Workers reports the fleet width every shares slice must match.
	Workers() int
	// SendBase ships (or on a replan, re-ships) the base relation routed
	// under epoch's plan: shares[w] is worker w's shard. Workers rebuild
	// their join-side structure; windows sent before this call still count
	// against the previous epoch's base.
	SendBase(epoch uint32, shares [][]join.Key) error
	// SendWindow appends one window routed under epoch's plan.
	SendWindow(window, epoch uint32, shares [][]join.Key) error
	// Collect blocks until every worker has replied for (window, epoch) and
	// returns the replies in worker order. Replies for the same window under
	// an older epoch (a window re-sent after a fault) are discarded.
	Collect(window, epoch uint32) ([]WindowReply, error)
	// Close retires the stream job on every worker.
	Close() error
}

// StreamRuntime is implemented by runtimes that can host long-lived
// continuous-join stream jobs.
type StreamRuntime interface {
	Runtime
	OpenStream(spec StreamSpec) (StreamHandle, error)
}

// CloseWindow is one worker's end of a window, the step every StreamRuntime
// takes so in-process and wire transports reply bit-identically: it sorts the
// shard in place, summarizes it at the window summary's size from a stream
// derived from sp.Seed, the worker and the window (nil for an empty shard),
// and finishes res's probe relation with it, lent, in key order, counting
// any probe chunks res kept back. Both steps stamp res's clock.
func CloseWindow(res *localjoin.Resident, keys []join.Key, sp StatsSpec, worker int, window uint32) (int64, *stats.Summary) {
	var sum *stats.Summary
	if len(keys) > 0 {
		sum = sample.SummarizeInPlace(keys, WindowSampleCap, WindowBuckets,
			stats.NewRNG(streamSummarySeed(sp.Seed, worker, window)))
	}
	res.Mark(stage.Summarize)
	return res.Finish(keys), sum
}

// LocalStreamRuntime hosts stream jobs in-process: one state slot per
// simulated worker, windows counted synchronously at SendWindow. It is the
// reference implementation the wire transport crosschecks against.
type LocalStreamRuntime struct {
	Local
	// Workers is the simulated fleet width.
	Workers int
}

// OpenStream implements StreamRuntime.
func (l LocalStreamRuntime) OpenStream(spec StreamSpec) (StreamHandle, error) {
	if l.Workers < 1 {
		return nil, fmt.Errorf("exec: local stream needs at least 1 worker, have %d", l.Workers)
	}
	return &localStream{
		spec:    spec,
		shards:  make([]*localjoin.Resident, l.Workers),
		clks:    make([]stage.Clock, l.Workers),
		replies: make(map[uint64][]WindowReply),
	}, nil
}

// localStream holds each simulated worker's sealed base shard (nil before
// SendBase) and the clock it stamps, restarted for each window.
type localStream struct {
	spec    StreamSpec
	epoch   uint32
	shards  []*localjoin.Resident
	clks    []stage.Clock
	replies map[uint64][]WindowReply
	closed  bool
}

func winKey(window, epoch uint32) uint64 { return uint64(epoch)<<32 | uint64(window) }

func (s *localStream) Workers() int { return len(s.shards) }

func (s *localStream) check(shares [][]join.Key) error {
	if s.closed {
		return fmt.Errorf("exec: stream is closed")
	}
	if len(shares) != len(s.shards) {
		return fmt.Errorf("exec: %d shares for %d workers", len(shares), len(s.shards))
	}
	return nil
}

func (s *localStream) SendBase(epoch uint32, shares [][]join.Key) error {
	if err := s.check(shares); err != nil {
		return err
	}
	s.epoch = epoch
	for w := range s.shards {
		s.shards[w] = localjoin.NewResident(s.spec.Cond, false, nil, &s.clks[w])
		s.shards[w].Seal(shares[w])
	}
	return nil
}

func (s *localStream) SendWindow(window, epoch uint32, shares [][]join.Key) error {
	if err := s.check(shares); err != nil {
		return err
	}
	if s.shards[0] == nil || epoch != s.epoch {
		return fmt.Errorf("exec: window %d sent for epoch %d, base is at %d", window, epoch, s.epoch)
	}
	rs := make([]WindowReply, len(s.shards))
	for w := range s.shards {
		r := WindowReply{Worker: w, Window: window, Epoch: epoch, Input: int64(len(shares[w]))}
		s.clks[w] = stage.Start()
		r.Count, r.Summary = CloseWindow(s.shards[w], slices.Clone(shares[w]), s.spec.Stats, w, window)
		r.Stages = s.clks[w].Record
		rs[w] = r
	}
	s.replies[winKey(window, epoch)] = rs
	return nil
}

func (s *localStream) Collect(window, epoch uint32) ([]WindowReply, error) {
	rs, ok := s.replies[winKey(window, epoch)]
	if !ok {
		return nil, fmt.Errorf("exec: window %d epoch %d was never sent", window, epoch)
	}
	delete(s.replies, winKey(window, epoch))
	return rs, nil
}

func (s *localStream) Close() error {
	s.closed = true
	s.shards = nil
	s.replies = nil
	return nil
}
