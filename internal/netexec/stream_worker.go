package netexec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/keysort"
	"ewh/internal/localjoin"
	"ewh/internal/planio"
)

// This file is the worker side of the continuous-join stream protocol
// (frames 33-38): one long-lived numbered job per connection that joins an
// unbounded sequence of tuple windows against a static base relation. The
// read loop decodes stream frames into pooled buffers and hands them to a
// per-stream goroutine over a bounded channel (backpressure onto TCP,
// exactly like the insert-while-probe feeder); the goroutine maintains the
// base-side join structure, counts each window the moment its end frame
// lands, summarizes the window's keys and replies a frameV3StreamRep. A new
// epoch's base frames tear down the old structure and build the next —
// mid-stream replanning without restarting the job. The ordinary EOS /
// metrics pair closes the stream with aggregate totals.

// streamOpen opens a stream job (rides frameV3StreamOpen as gob).
type streamOpen struct {
	WorkerID int
	Cond     join.Spec
	// Engine is the coordinator's exec.JoinEngine selection, same contract
	// as jobOpen.Engine.
	Engine int
	// StatsCap/StatsBuckets/StatsSeed/StatsAdaptive size the per-window
	// summaries, same vocabulary as planSpec's stats fields.
	StatsCap      int
	StatsBuckets  int
	StatsSeed     uint64
	StatsAdaptive bool
}

// streamWinReply answers one window's end frame (rides frameV3StreamRep as
// gob). Summary is a planio-encoded stats.Summary, nil for an empty shard.
// A failed stream replies its error on every subsequent window so the
// coordinator's lockstep collect never hangs.
type streamWinReply struct {
	Window  uint32
	Epoch   uint32
	Input   int64
	Count   int64
	Summary []byte
	Err     string
	Code    int
}

// Stream event kinds, read-loop → stream goroutine.
const (
	evStreamBase = iota
	evStreamBaseEnd
	evStreamWin
	evStreamWinEnd
	evStreamEOS
	evStreamFail
)

type streamEvent struct {
	kind  int
	win   uint32
	epoch uint32
	keys  []join.Key // pooled; ownership transfers to the goroutine
	total int
	err   error
}

// streamFeedCap bounds the stream channel; see feedCap for the rationale.
const streamFeedCap = 8

// sessStream is one stream job's state. The read loop owns frame decode and
// tenant charging; everything else lives in the goroutine.
type sessStream struct {
	ws *workerSession
	j  *sessJob

	cond   join.Condition
	engine exec.JoinEngine // resolved for cond: EngineHash or EngineMerge
	st     exec.StatsSpec

	ch    chan streamEvent
	done  chan struct{}
	stopO sync.Once

	// charged tracks receive-buffer bytes reserved against the tenant:
	// charged by the read loop per chunk, credited by the goroutine when a
	// window retires or an epoch's base is replaced, and swept on exit.
	charged atomic.Int64

	// Goroutine state.
	failed error
	epoch  uint32
	sealed bool
	baseN  int
	build  *localjoin.Build // hash engine
	base   []join.Key       // merge engine; sorted at seal

	winOpen bool
	win     uint32
	winKeys []join.Key
	winHash int64 // hash engine: matches counted chunk-by-chunk

	totIn, totOut int64
	start         time.Time
	sawEOS        bool
}

// newSessStream starts the goroutine for a freshly opened stream job. A job
// that failed at open (j.err set, possibly without a condition) starts
// poisoned.
func newSessStream(j *sessJob, so *streamOpen) *sessStream {
	cond := j.cond
	if cond == nil {
		cond = join.Equi{} // placeholder; the stream is poisoned
	}
	s := &sessStream{
		ws: j.ws, j: j,
		cond:   cond,
		engine: j.engine.ForCond(cond),
		st: exec.StatsSpec{Cap: so.StatsCap, Buckets: so.StatsBuckets,
			Seed: so.StatsSeed, Adaptive: so.StatsAdaptive},
		ch:     make(chan streamEvent, streamFeedCap),
		done:   make(chan struct{}),
		failed: j.err,
		start:  time.Now(),
	}
	go s.run()
	return s
}

// feed hands one event to the goroutine. Read-loop side only.
func (s *sessStream) feed(ev streamEvent) { s.ch <- ev }

// stop terminates the goroutine (connection teardown, abort): close the
// channel, wait, and sweep whatever tenant reservation the exit path did not
// credit. Idempotent, and a plain sweep once the goroutine has exited — which
// is how the EOS path's own retire passes through here.
func (s *sessStream) stop() {
	s.stopO.Do(func() { close(s.ch) })
	<-s.done
	s.sweep()
}

// sweep credits the tenant for every byte still reserved.
func (s *sessStream) sweep() {
	if n := s.charged.Swap(0); n > 0 {
		s.ws.w.creditTenant(s.ws.tenant, n)
	}
}

// charge reserves n receive-buffer bytes against the stream's tenant.
// Read-loop side.
func (s *sessStream) charge(n int64) error {
	if err := s.ws.w.chargeTenant(s.ws.tenant, n); err != nil {
		return err
	}
	s.charged.Add(n)
	return nil
}

// credit releases part of the reservation. Goroutine side.
func (s *sessStream) credit(n int64) {
	if n > 0 {
		s.charged.Add(-n)
		s.ws.w.creditTenant(s.ws.tenant, n)
	}
}

// fail poisons the stream: subsequent events recycle their buffers and
// window ends reply the error, so the coordinator's lockstep never hangs.
func (s *sessStream) fail(err error) {
	if s.failed == nil {
		s.failed = err
	}
}

// run is the stream goroutine. After an EOS the read loop has already taken
// the job out of its table, so the goroutine retires the job itself on the
// way out — once done is closed, so retire's stop does not wait on its own
// caller.
func (s *sessStream) run() {
	defer func() {
		close(s.done)
		if s.sawEOS {
			s.ws.retire(s.j)
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "netexec: worker: recovered in stream job %d from %s: %v\n%s",
				s.j.id, s.ws.conn.RemoteAddr(), r, debug.Stack())
		}
	}()
	for ev := range s.ch {
		switch ev.kind {
		case evStreamFail:
			s.fail(ev.err)
		case evStreamBase:
			s.onBase(ev)
		case evStreamBaseEnd:
			s.onBaseEnd(ev)
		case evStreamWin:
			s.onWin(ev)
		case evStreamWinEnd:
			s.onWinEnd(ev)
		case evStreamEOS:
			s.onEOS()
			return
		}
	}
}

// resetBase drops the previous epoch's structure and reservation.
func (s *sessStream) resetBase() {
	s.credit(8 * int64(s.baseN))
	s.build, s.base, s.baseN, s.sealed = nil, nil, 0, false
}

func (s *sessStream) onBase(ev streamEvent) {
	defer exec.PutKeyBuffer(ev.keys)
	if s.failed != nil {
		s.credit(8 * int64(len(ev.keys)))
		return
	}
	if ev.epoch != s.epoch || s.sealed {
		if s.sealed && ev.epoch == s.epoch {
			s.fail(fmt.Errorf("stream base re-opened for sealed epoch %d", ev.epoch))
			s.credit(8 * int64(len(ev.keys)))
			return
		}
		// First frame of a new epoch: replanned base replaces the old one.
		s.resetBase()
		s.epoch = ev.epoch
	}
	switch s.engine {
	case exec.EngineHash:
		if s.build == nil {
			s.build = localjoin.NewBuild()
		}
		s.build.Insert(ev.keys)
	default:
		s.base = append(s.base, ev.keys...)
	}
	s.baseN += len(ev.keys)
	// The keys now live in the build (or the flat base): the reservation
	// stays until the epoch resets, covering that resident memory.
}

func (s *sessStream) onBaseEnd(ev streamEvent) {
	if s.failed != nil {
		return
	}
	if ev.epoch != s.epoch {
		if !s.sealed && s.baseN > 0 {
			s.fail(fmt.Errorf("stream base end for epoch %d amid epoch %d's chunks", ev.epoch, s.epoch))
			return
		}
		// A replanned base whose share for THIS worker is empty ships no
		// chunk frames, so the end frame alone opens (and seals) the epoch.
		s.resetBase()
		s.epoch = ev.epoch
	}
	switch {
	case s.sealed:
		s.fail(fmt.Errorf("stream base end for already-sealed epoch %d", ev.epoch))
	case ev.total != s.baseN:
		s.fail(fmt.Errorf("stream base received %d tuples, end declares %d", s.baseN, ev.total))
	default:
		release, err := s.ws.w.admitJob(s.ws.tenant, s.ws.w.kill, s.ws.done)
		if err != nil {
			s.fail(err)
			return
		}
		if s.engine == exec.EngineHash {
			if s.build == nil {
				s.build = localjoin.NewBuild()
			}
			s.build.Seal()
		} else {
			keysort.Sort(s.base)
		}
		release()
		s.sealed = true
	}
}

func (s *sessStream) onWin(ev streamEvent) {
	defer exec.PutKeyBuffer(ev.keys)
	if s.failed != nil {
		s.credit(8 * int64(len(ev.keys)))
		return
	}
	switch {
	case !s.sealed:
		s.fail(fmt.Errorf("stream window %d before any sealed base", ev.win))
	case ev.epoch != s.epoch:
		s.fail(fmt.Errorf("stream window %d routed for epoch %d, base is at %d",
			ev.win, ev.epoch, s.epoch))
	case s.winOpen && ev.win != s.win:
		s.fail(fmt.Errorf("stream window %d interleaves with open window %d", ev.win, s.win))
	default:
		if !s.winOpen {
			s.winOpen, s.win, s.winHash = true, ev.win, 0
		}
		if s.engine == exec.EngineHash {
			// Probe each chunk as it lands: the count overlaps the window's
			// remaining frames still on the wire.
			s.winHash += s.build.ProbeCount(ev.keys)
		}
		s.winKeys = append(s.winKeys, ev.keys...)
		return
	}
	s.credit(8 * int64(len(ev.keys)))
}

func (s *sessStream) onWinEnd(ev streamEvent) {
	r := streamWinReply{Window: ev.win, Epoch: ev.epoch}
	if s.failed == nil && !s.winOpen {
		// An empty window ships no chunk frames; its end frame both opens
		// and closes it.
		if !s.sealed {
			s.fail(fmt.Errorf("stream window %d before any sealed base", ev.win))
		} else if ev.epoch != s.epoch {
			s.fail(fmt.Errorf("stream window %d routed for epoch %d, base is at %d",
				ev.win, ev.epoch, s.epoch))
		} else {
			s.winOpen, s.win, s.winHash = true, ev.win, 0
		}
	}
	switch {
	case s.failed != nil:
	case ev.win != s.win || ev.epoch != s.epoch:
		s.fail(fmt.Errorf("stream window end (%d, epoch %d) does not match open window (%d, epoch %d)",
			ev.win, ev.epoch, s.win, s.epoch))
	case ev.total != len(s.winKeys):
		s.fail(fmt.Errorf("stream window %d received %d tuples, end declares %d",
			ev.win, len(s.winKeys), ev.total))
	default:
		release, err := s.ws.w.admitJob(s.ws.tenant, s.ws.w.kill, s.ws.done)
		if err != nil {
			s.fail(err)
			break
		}
		r.Input = int64(len(s.winKeys))
		if sum := exec.SummarizeWindow(s.winKeys, s.st, s.j.workerID, ev.win); sum != nil {
			enc, err := planio.EncodeSummary(sum)
			if err != nil {
				release()
				s.fail(fmt.Errorf("window summary: %w", err))
				break
			}
			r.Summary = enc
		}
		if s.engine == exec.EngineHash {
			r.Count = s.winHash
		} else {
			keysort.Sort(s.winKeys)
			r.Count = localjoin.CountSorted(s.winKeys, s.base, s.cond)
		}
		release()
		s.totIn += r.Input
		s.totOut += r.Count
	}
	if s.failed != nil {
		r.Err = s.failed.Error()
		r.Code = rejectCode(s.failed)
	}
	// Retire the window: the shard's receive bytes leave worker memory here.
	s.credit(8 * int64(len(s.winKeys)))
	s.winKeys = s.winKeys[:0]
	s.winOpen = false
	s.reply(frameV3StreamRep, r)
}

// onEOS replies the stream's aggregate metrics; run retires the job next.
func (s *sessStream) onEOS() {
	s.sawEOS = true
	m := metrics{
		InputR1: s.totIn,
		InputR2: int64(s.baseN),
		Output:  s.totOut,
		Nanos:   time.Since(s.start).Nanoseconds(),
		Engine:  int(s.engine),
	}
	if s.failed != nil {
		m = metrics{Err: s.failed.Error(), Code: rejectCode(s.failed)}
	}
	s.reply(frameV3Metrics, m)
}

// reply writes one gob frame under the connection's write lock. A write
// failure poisons the stream; the read loop will observe the dead
// connection on its own.
func (s *sessStream) reply(typ byte, v any) {
	if err := s.ws.reply(typ, s.j.id, v); err != nil {
		s.fail(fmt.Errorf("stream reply: %w", err))
	}
}

// readStreamKeys decodes one stream BASE or WIN frame — sub-header
// (epoch, count) or (window, epoch, count), then the keys into a pooled
// buffer charged to the tenant — and hands it to the goroutine. Job-level
// failures drain the payload and return a *protoErr, mirroring readChunk.
func (j *sessJob) readStreamKeys(br *bufio.Reader, n int, typ byte) error {
	ev := streamEvent{kind: evStreamBase}
	hdrLen := streamBaseHdrLen
	if typ == frameV3StreamWin {
		ev.kind, hdrLen = evStreamWin, streamWinHdrLen
	}
	if n < hdrLen {
		return fmt.Errorf("stream frame length %d below sub-header size", n)
	}
	var h [streamWinHdrLen]byte
	if _, err := io.ReadFull(br, h[:hdrLen]); err != nil {
		return err
	}
	if typ == frameV3StreamWin {
		ev.win = binary.LittleEndian.Uint32(h[0:])
	}
	ev.epoch = binary.LittleEndian.Uint32(h[hdrLen-8:])
	count := int(binary.LittleEndian.Uint32(h[hdrLen-4:]))
	drain := func(e *protoErr) error { return drainFrame(br, n-hdrLen, e) }
	if n != hdrLen+8*count {
		return drain(protoErrf("stream frame length %d inconsistent with count %d", n, count))
	}
	if err := j.stream.charge(8 * int64(count)); err != nil {
		return drain(&protoErr{msg: err.Error(), cause: err})
	}
	ev.keys = exec.GetKeyBuffer(count)
	if err := readKeysLE(br, ev.keys); err != nil {
		exec.PutKeyBuffer(ev.keys)
		return err
	}
	j.stream.feed(ev)
	return nil
}
