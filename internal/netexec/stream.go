package netexec

import (
	"bufio"
	"errors"
	"fmt"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/planio"
	"ewh/internal/wire"
)

// This file is the coordinator side of the continuous-join stream protocol:
// Session implements exec.StreamRuntime by opening the same numbered stream
// job on every worker connection and multiplexing per-window replies off
// the existing read loops. The driver (internal/streamjoin) routes windows,
// merges the per-worker summaries and decides when to replan; this layer
// only moves frames and classifies faults.

// streamRepCap bounds a stream sub-job's buffered window replies. The driver
// is lockstep (it collects every window it sends), so the steady state is one
// outstanding reply; the headroom absorbs pipelined sends. Overrunning it
// means the sender stopped collecting — that is a protocol breach, and the
// connection is failed rather than blocking the read loop under it.
const streamRepCap = 256

// streamConn is one worker connection's sub-job of an open stream. err is
// sticky: once set the stream is unusable on this connection.
type streamConn struct {
	*subJob
	err error
}

// Stream is an open continuous-join stream across the session's fleet; it
// implements exec.StreamHandle. Not safe for concurrent use — the driver is
// the single sender, matching the exec contract.
type Stream struct {
	id     uint32
	conns  []*streamConn
	closed bool
}

// OpenStream implements exec.StreamRuntime: it opens one stream sub-job per
// session connection. The open frames are flushed immediately so a dead
// worker surfaces here rather than at the first window.
func (s *Session) OpenStream(spec exec.StreamSpec) (exec.StreamHandle, error) {
	js, err := join.SpecOf(spec.Cond)
	if err != nil {
		return nil, err
	}
	st := &Stream{id: s.ids.Add(1), conns: make([]*streamConn, 0, len(s.conns))}
	o := open{Kind: kindStream, Cond: js, Stats: spec.Stats}
	for w, c := range s.conns {
		j, err := c.open("stream", st.id, w, streamRepCap, nil)
		if err == nil {
			st.conns = append(st.conns, &streamConn{subJob: j})
			o.WorkerID = w
			err = j.send(func(bw *bufio.Writer) error {
				return writeCtl(bw, wire.Open, st.id, &o)
			})
		}
		if err != nil {
			// A half-open stream is useless: abort the sub-jobs opened so far.
			st.closed = true
			for _, sc := range st.conns {
				sc.close()
			}
			return nil, err
		}
	}
	return st, nil
}

// Workers implements exec.StreamHandle.
func (st *Stream) Workers() int { return len(st.conns) }

// sendShares sends every connection its share concurrently — base re-ships
// are the bulk of a replan's cost, and the per-connection writers are
// independent. A connection already broken reports its sticky fault.
func (st *Stream) sendShares(shares [][]join.Key, write func(*bufio.Writer, []join.Key) error) error {
	if st.closed {
		return errors.New("netexec: stream is closed")
	}
	if len(shares) != len(st.conns) {
		return fmt.Errorf("netexec: %d shares for %d workers", len(shares), len(st.conns))
	}
	for w, share := range shares {
		// The end frame carries the share's total as a u32 and the worker
		// buffers all of it: refuse what it would refuse, before any frame.
		if overRelationCap(0, len(share)) {
			return fmt.Errorf("netexec: worker %d's share holds %d tuples, wire limit %d",
				w, len(share), MaxRelationTuples)
		}
	}
	return fanOut(len(st.conns), func(w int) error {
		sc := st.conns[w]
		if sc.err == nil {
			sc.err = sc.send(func(bw *bufio.Writer) error { return write(bw, shares[w]) })
		}
		return sc.err
	})
}

// SendBase implements exec.StreamHandle.
func (st *Stream) SendBase(epoch uint32, shares [][]join.Key) error {
	return st.sendShares(shares, func(bw *bufio.Writer, share []join.Key) error {
		return writeRun(bw, st.id, true, 0, epoch, share)
	})
}

// SendWindow implements exec.StreamHandle.
func (st *Stream) SendWindow(window, epoch uint32, shares [][]join.Key) error {
	return st.sendShares(shares, func(bw *bufio.Writer, share []join.Key) error {
		return writeRun(bw, st.id, false, window, epoch, share)
	})
}

// Collect implements exec.StreamHandle: one reply per worker, in worker
// order. Replies for other (window, epoch) pairs — a window re-sent under a
// newer epoch leaves the old epoch's reply behind — are discarded.
func (st *Stream) Collect(window, epoch uint32) ([]exec.WindowReply, error) {
	out := make([]exec.WindowReply, len(st.conns))
	for w, sc := range st.conns {
		if sc.err == nil {
			out[w], sc.err = sc.collect(window, epoch)
		}
		if sc.err != nil {
			return nil, sc.err
		}
	}
	return out, nil
}

func (sc *streamConn) collect(window, epoch uint32) (exec.WindowReply, error) {
	for {
		r, err := sc.await("window reply", true)
		switch {
		case err != nil:
			return exec.WindowReply{}, err
		case r.Final:
			return exec.WindowReply{}, sc.proto(errors.New("stream closed before the window's reply"))
		case r.Window != window || r.Epoch != epoch:
			continue // stale reply from a superseded send
		}
		wr := exec.WindowReply{Worker: sc.worker, Window: window, Epoch: epoch,
			Input: r.InputR1, Count: r.Output, Stages: r.Stages}
		if len(r.Summary) > 0 {
			sum, err := planio.DecodeSummary(r.Summary)
			if err != nil {
				return exec.WindowReply{}, sc.proto(fmt.Errorf("window summary: %w", err))
			}
			wr.Summary = sum
		}
		return wr, nil
	}
}

// Close implements exec.StreamHandle: EOS every live sub-job and await its
// final reply, then close them all — which aborts the ones a job-level
// fault (a quota rejection, a bad summary) broke on a healthy connection, so
// the worker's poisoned stream job retires too.
func (st *Stream) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	errs := make([]error, len(st.conns))
	for w, sc := range st.conns {
		if sc.err == nil {
			sc.err = sc.send(func(bw *bufio.Writer) error {
				return writeFrameHeader(bw, wire.EOS, st.id, 0)
			})
		}
		if sc.err == nil {
			_, sc.err = sc.await("reply", false)
		}
		sc.close()
		errs[w] = sc.err
	}
	return errors.Join(errs...)
}
