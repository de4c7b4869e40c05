package netexec

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"ewh/internal/bufpool"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/stage"
	"ewh/internal/wire"
)

// TestWorkerEventOrders feeds one worker every sequence of events up to
// ordersK long, over an alphabet written out here rather than read from the
// worker's kinds table, and holds the worker to the model below after each
// event and each sequence. Per job kind (count, pairs, plan, peer, stream)
// the alphabet is the job's OPEN, its base run, window w ∈ {0, 1, 2} at epoch
// e ∈ {0, 1}, its EOS, its ABORT and the coordinator's hang-up; for a peer job
// also one contribution session's OPEN, run, EOS, ABORT and hang-up,
// interleaved with the coordinator link. The oracle:
//   - every job ends in exactly one final REPLY, carrying a stage record, or
//     in none after an ABORT or a hang-up; every other frame the model
//     expects arrives as it says, and a frame the connection cannot account
//     for ends it;
//   - a refused run fails only its own job: the next job on the connection
//     answers bit-exactly;
//   - after each event the worker holds the jobs, transfer and admission
//     slots the model does, and after the links close, Holdings{};
//   - the Jobs tallies equal the replies read, the admission grants the
//     model's, and the build cache holds no side but the one every count job
//     seals whole.
//
// Each sequence runs on connections of its own. GOMAXPROCS/2 lanes each run
// theirs one at a time on a worker of their own, so at most GOMAXPROCS
// connections are open at once.
func TestWorkerEventOrders(t *testing.T) {
	leakCheck(t)
	var seqs []orderSeq
	for _, kind := range []byte{kindCount, kindPairs, kindPlan, kindPeer, kindStream} {
		seqs = appendOrders(seqs, orderModel{kind: kind}, nil, ordersK)
	}
	// Shortest first, so a failure reported is the shortest a lane found.
	slices.SortStableFunc(seqs, func(a, b orderSeq) int { return len(a.evs) - len(b.evs) })
	lanes := max(1, runtime.GOMAXPROCS(0)/2)
	failed := make([]string, lanes)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := ListenWorker("127.0.0.1:0")
			if err != nil {
				failed[lane] = err.Error()
				return
			}
			defer w.Close()
			w.SetAdmission(AdmissionConfig{MaxInFlight: 16})
			// A lane stops at its first failure, which may leave its worker
			// holding anything; the others stop at their next sequence.
			for i := lane; i < len(seqs) && !stop.Load(); i += lanes {
				if err := runOrder(w, seqs[i]); err != nil {
					failed[lane] = fmt.Sprintf("%s: %v", seqs[i], err)
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, f := range failed {
		if f != "" {
			t.Error(f)
		}
	}
	t.Logf("%d sequences up to %d events in %v on %d lanes", len(seqs), ordersK, time.Since(start).Round(time.Millisecond), lanes)
}

// ordersK is the longest sequence the sweep runs; orders_race_test.go
// shortens it under the race detector.
var ordersK = 5

// TestFailedWindowPoolsKeptProbeChunks is a failure the sweep's whole runs
// never reach: a count job whose side sealed into the sorted block keeps each
// window chunk for its Finish, and the window fails between two of them. The
// window's end credits the kept chunk to the ledger, so the chunk must leave
// the side there, back to the pool, not linger to the job's exit. A weak
// pointer tells: a pooled chunk is gone once two collections have emptied
// the pool, a chunk the live side still holds is not.
func TestFailedWindowPoolsKeptProbeChunks(t *testing.T) {
	w := ListenWorkerOn(nil)
	j := &sessJob{ws: &workerSession{w: w}, kind: kindCount, cond: join.Equi{}, releaseSlot: func() {}}
	j.resetBase()
	// chunk is n keys from the pool, 64 slots apart, charged as the read loop
	// charges a frame's.
	chunk := func(n int) []join.Key {
		keys := bufpool.Keys.Get(n)
		for i := range keys {
			keys[i] = join.Key(64 * i)
		}
		if err := j.charge(8 * int64(n)); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	held := func() int64 { return w.Snapshot().Holdings.Bytes }
	const nBase, nWin = 500, 700
	j.onBase(streamEvent{keys: chunk(nBase)})
	j.onBaseEnd(streamEvent{})
	kept := func() weak.Pointer[join.Key] {
		keys := chunk(nWin)
		j.onWin(streamEvent{keys: keys})
		return weak.Make(&keys[0])
	}()
	if got, want := held(), int64(8*(nBase+nWin)); j.failed != nil || got != want {
		t.Fatalf("after a window chunk: %d bytes held, failed %v; want %d held by a sorted block that kept it", got, j.failed, want)
	}
	j.onWin(streamEvent{epoch: 1, keys: chunk(1)}) // routed for an epoch the base is not at
	j.onWinEnd(streamEvent{total: nWin + 1})
	if j.failed == nil {
		t.Fatal("a window chunk routed for another epoch did not fail the job")
	}
	if got, want := held(), int64(8*nBase); got != want {
		t.Fatalf("after the failed window's end: %d bytes held, want the base's %d", got, want)
	}
	for range 3 {
		runtime.GC()
	}
	if kept.Value() != nil {
		t.Error("the failed window's kept probe chunk was credited to the ledger but stays in the side")
	}
	j.resetBase()
	if got := held(); got != 0 {
		t.Errorf("after the side's drop: %d bytes held, want 0", got)
	}
}

// orderEv is one letter of the alphabet: an event on the coordinator link,
// or on the contribution session when contrib.
type orderEv struct {
	contrib    bool
	what       byte // 'O'pen, 'B'ase run, 'W'indow run, 'E'OS, 'A'BORT, 'H'ang-up
	win, epoch uint32
}

func (e orderEv) String() string {
	s := string(e.what)
	if e.what == 'W' {
		s = fmt.Sprintf("W%d@%d", e.win, e.epoch)
	}
	if e.contrib {
		s = "c" + s
	}
	return s
}

// orderSeq is one sequence of the sweep, of one job kind.
type orderSeq struct {
	kind byte
	evs  []orderEv
}

// orderNames are the kinds' names in a Snapshot's tallies.
var orderNames = [numKinds]string{kindCount: "count", kindPairs: "pairs", kindPlan: "plan",
	kindPeer: "peer", kindStream: "stream", kindContrib: "contrib"}

func (s orderSeq) String() string { return fmt.Sprint(orderNames[s.kind], " ", s.evs) }

// alphabet is every event a sequence of kind may take next.
func alphabet(kind byte, coord, contrib bool) []orderEv {
	var out []orderEv
	if coord {
		out = append(out, orderEv{what: 'O'}, orderEv{what: 'B'})
		for e := range uint32(2) {
			for w := range uint32(3) {
				out = append(out, orderEv{what: 'W', win: w, epoch: e})
			}
		}
		out = append(out, orderEv{what: 'E'}, orderEv{what: 'A'}, orderEv{what: 'H'})
	}
	if kind == kindPeer && contrib {
		for _, what := range "OBEAH" {
			out = append(out, orderEv{contrib: true, what: byte(what)})
		}
	}
	return out
}

// appendOrders appends to seqs every sequence of at most k more events after
// prefix, which brought m to its state: each prefix is a sequence of its own,
// and no event follows its link's end.
func appendOrders(seqs []orderSeq, m orderModel, prefix []orderEv, k int) []orderSeq {
	if len(prefix) > 0 {
		seqs = append(seqs, orderSeq{kind: m.kind, evs: prefix})
	}
	if k == 0 {
		return seqs
	}
	for _, e := range alphabet(m.kind, !m.dead[0], !m.dead[1]) {
		next := m
		next.step(e)
		seqs = appendOrders(seqs, next, append(slices.Clip(prefix), e), k-1)
	}
	return seqs
}

// The keys every run carries: a coordinator base run, windows 0 and 1, and a
// contribution's share. Under equality a window joins the base 3 times, and
// so does the share; windows 0 and 1 hold as many keys as a plan job's re-key
// column must. Window 2's run is empty, its end frame alone, so an end frame
// the job refuses with no key frame ahead of it is in the sweep too.
var (
	orderBase  = []join.Key{1, 2, 2, 3}
	orderWin   = []join.Key{2, 3, 9}
	orderShare = []join.Key{2, 3}
)

// winKeys is window w's run.
func winKeys(w uint32) []join.Key {
	if w == 2 {
		return nil
	}
	return orderWin
}

// Job and transfer phases in the model.
const (
	phAbsent  = iota // not in the worker's table: its id is free
	phFeeding        // opened, its EOS not yet read
	phParked         // past its EOS, waiting on a PLAN2 or its transfer
)

// orderJob is the model's state of one job.
type orderJob struct {
	phase   int
	failed  bool
	runs    [4]bool // base, windows 0–2 ended
	sealed  bool
	in, out int // a stream's counted windows: their keys and matches
}

// orderWant is a frame the model expects: a REPLY on a link, final or
// interim, refused or carrying in, tallied under kind; pairs precede a pairs
// job's.
type orderWant struct {
	contrib, final, refused, pairs bool
	kind                           byte
	in                             reply
}

// orderModel is the sweep's statement of what one worker does with the
// events of a sequence of one kind: job 1 on the coordinator link and, for a
// peer job, job 1 on the contribution session and the transfer they meet in.
type orderModel struct {
	kind     byte
	dead     [2]bool // coordinator link, contribution session
	job, con orderJob
	transfer int // phAbsent, or phFeeding while it waits for its sender, phParked once complete
	grants   int
	// want is what the last event should have the worker send, fatal whether
	// it ends its link.
	want  []orderWant
	fatal bool
}

// takes is the runs each kind but a stream takes, all at epoch 0: its base,
// then windows 0, 1 and 2 (a plan job's window 1 is its re-key column).
var takes = map[byte][4]bool{
	kindCount: {true, true},
	kindPairs: {true, true},
	kindPlan:  {true, true, true},
	kindPeer:  {true},
}

// holdings is what the worker must hold once it has served every event so
// far: jobs in its tables, the peer job's transfer, and the admission slot a
// count, pairs or plan job holds while it feeds.
func (m *orderModel) holdings() Holdings {
	var h Holdings
	for _, j := range []orderJob{m.job, m.con} {
		if j.phase != phAbsent {
			h.Jobs++
		}
	}
	if m.transfer != phAbsent {
		h.Transfers = 1
	}
	if m.job.phase == phFeeding && m.kind != kindPeer && m.kind != kindStream {
		h.Running = 1
	}
	return h
}

func (m *orderModel) step(e orderEv) {
	m.want, m.fatal = nil, false
	if e.contrib {
		m.stepContrib(e)
		return
	}
	j := &m.job
	switch {
	case e.what == 'H':
		m.dead[0] = true
		m.retire()
	case e.what == 'A':
		m.retire()
	case e.what == 'O' && j.phase == phAbsent:
		*j = orderJob{phase: phFeeding}
		switch m.kind {
		case kindPeer:
			m.transfer = phFeeding
			m.want = []orderWant{{kind: kindPeer}}
		case kindCount, kindPairs, kindPlan:
			m.grants++
		}
	case e.what == 'O', j.phase != phFeeding: // a second OPEN, or a run or EOS for no job being fed
		m.dead[0], m.fatal = true, true
		m.retire()
	case e.what == 'E':
		m.eos()
	case m.kind == kindStream:
		m.streamRun(e)
	default:
		slot := 0
		if e.what == 'W' {
			slot = 1 + int(e.win)
		}
		if e.epoch != 0 || !takes[m.kind][slot] || j.runs[slot] {
			j.failed = true
			return
		}
		j.runs[slot] = true
		switch {
		case j.failed:
		case m.kind == kindCount && slot == 0:
			j.sealed = true
		case m.kind == kindCount && !j.sealed: // a window ahead of its sealed base
			j.failed = true
		case m.kind == kindPeer: // its seal
			m.grants++
		}
	}
}

// streamRun is a stream's base or window run at epoch e: one base, sealed,
// and then windows of its epoch, each answered on its own.
func (m *orderModel) streamRun(e orderEv) {
	j := &m.job
	switch {
	case e.what == 'B' && !j.failed && j.sealed:
		j.failed = true
	case e.what == 'B' && !j.failed:
		j.sealed = true
		m.grants++
	case e.what == 'W':
		n, out := len(winKeys(e.win)), 0
		if n > 0 {
			out = 3
		}
		j.failed = j.failed || !j.sealed || e.epoch != 0
		if !j.failed {
			j.in, j.out = j.in+n, j.out+out
			m.grants++
		}
		m.want = []orderWant{{kind: kindStream, refused: j.failed,
			in: reply{Window: e.win, Epoch: e.epoch, InputR1: int64(n), Output: int64(out)}}}
	}
}

// eos is job 1's EOS: it replies at once, parks, or (a plan job) replies its
// summary and parks.
func (m *orderModel) eos() {
	j := &m.job
	final := orderWant{final: true, kind: m.kind, refused: j.failed}
	for slot, t := range takes[m.kind] {
		final.refused = final.refused || t && !j.runs[slot]
	}
	switch {
	case m.kind == kindStream:
		final.in = reply{InputR1: int64(j.in), Output: int64(j.out)}
		if j.sealed {
			final.in.InputR2 = 4
		}
	case final.refused:
	case m.kind == kindPlan:
		j.phase = phParked
		m.want = []orderWant{{kind: kindPlan}}
		return
	case m.kind == kindPeer && m.transfer != phParked:
		j.phase = phParked
		return
	case m.kind == kindPeer:
		m.grants++ // its probe
		final.in = reply{InputR1: 2, InputR2: 4, Output: 3}
	default:
		final.in = reply{InputR1: 4, InputR2: 3, Output: 3}
		final.pairs = m.kind == kindPairs
	}
	m.want = []orderWant{final}
	m.retire()
}

// retire takes job 1 out of the model, and with a peer job its transfer.
func (m *orderModel) retire() {
	if m.job.phase != phAbsent && m.kind == kindPeer {
		m.transfer = phAbsent
	}
	m.job.phase = phAbsent
}

// stepContrib is an event on the contribution session, whose one job
// contributes sender 0's share to the peer job's one-sender transfer.
func (m *orderModel) stepContrib(e orderEv) {
	c := &m.con
	switch {
	case e.what == 'H':
		m.dead[1] = true
		c.phase = phAbsent
	case e.what == 'A':
		c.phase = phAbsent
	case e.what == 'O' && c.phase == phAbsent:
		*c = orderJob{phase: phFeeding}
	case e.what == 'O', c.phase != phFeeding:
		m.dead[1], m.fatal = true, true
		c.phase = phAbsent
	case e.what == 'B':
		c.failed = c.failed || c.runs[0]
		c.runs[0] = true
	default: // its EOS: the share commits to an open, waiting transfer
		c.phase = phAbsent
		ok := !c.failed && c.runs[0] && m.transfer == phFeeding
		m.want = []orderWant{{contrib: true, final: true, kind: kindContrib, refused: !ok, in: reply{InputR1: 2}}}
		if !ok {
			return
		}
		m.transfer = phParked
		if m.job.phase == phParked {
			m.grants++ // its probe
			m.want = append(m.want, orderWant{final: true, kind: kindPeer, in: reply{InputR1: 2, InputR2: 4, Output: 3}})
			m.retire()
		}
	}
}

// orderLink is one connection of a sequence, served by the worker's own
// connection handler over a pipe; frames collects what the worker sends.
type orderLink struct {
	conn   net.Conn
	bw     *bufio.Writer
	frames chan orderFrame
	done   chan struct{}
}

type orderFrame struct {
	typ   byte
	job   uint32
	r     reply
	pairs []exec.PairIdx
}

func dialOrderLink(w *Worker) *orderLink {
	c, s := net.Pipe()
	go w.handle(s)
	l := &orderLink{conn: c, bw: bufio.NewWriter(c), frames: make(chan orderFrame), done: make(chan struct{})}
	_, _ = l.bw.Write(wire.Prelude(wire.Version, ""))
	go func() {
		defer close(l.frames)
		br := bufio.NewReader(c)
		for {
			typ, job, n, err := readFrameHeader(br)
			f := orderFrame{typ: typ, job: job}
			switch {
			case err != nil:
				return
			case typ == wire.Reply:
				err = readCtl(br, n, maxControlPayload, &f.r)
			case typ == wire.Pairs:
				var p []exec.PairIdx
				if p, err = readPairsPayload(br, n); err == nil {
					f.pairs = slices.Clone(p)
					exec.PairBufs.Put(p)
				}
			default:
				_, err = io.CopyN(io.Discard, br, int64(n))
			}
			if err != nil {
				return
			}
			select {
			case l.frames <- f:
			case <-l.done:
				return
			}
		}
	}()
	return l
}

func (l *orderLink) close() {
	_ = l.conn.Close()
	close(l.done)
}

// next returns the next frame the worker sent on l, which must be job's; ok
// is false once l ended.
func (l *orderLink) next(job uint32) (f orderFrame, ok bool, err error) {
	select {
	case f, ok = <-l.frames:
		if ok && f.job != job {
			err = fmt.Errorf("frame type %d for job %d, want job %d's", f.typ, f.job, job)
		}
		return f, ok, err
	case <-time.After(5 * time.Second):
		return f, false, errors.New("no frame within 5s")
	}
}

// orderPairs is what a pairs job of orderBase and orderWin streams back.
var orderPairs = []exec.PairIdx{{I1: 1, I2: 0}, {I1: 2, I2: 0}, {I1: 3, I2: 1}}

// expect reads the frames want says l carries next and returns the reply.
func (l *orderLink) expect(want orderWant) (reply, error) {
	var pairs []exec.PairIdx
	for {
		f, ok, err := l.next(1)
		switch {
		case err != nil:
			return reply{}, err
		case !ok:
			return reply{}, fmt.Errorf("the link ended ahead of a reply %+v", want)
		case f.typ == wire.Pairs && want.pairs:
			pairs = append(pairs, f.pairs...)
			continue
		case f.typ != wire.Reply:
			return reply{}, fmt.Errorf("frame type %d ahead of a reply %+v", f.typ, want)
		}
		r := f.r
		switch {
		case r.Final != want.final || (r.Err != "") != want.refused:
			return r, fmt.Errorf("replied %+v, want %+v", r, want)
		case r.Final && r.Stages.Total() <= 0:
			return r, fmt.Errorf("a final reply %+v carries no stage time", r)
		case want.refused:
		case r.Window != want.in.Window || r.Epoch != want.in.Epoch || r.InputR1 != want.in.InputR1 ||
			r.InputR2 != want.in.InputR2 || r.Output != want.in.Output:
			return r, fmt.Errorf("replied %+v, want %+v", r, want.in)
		case want.pairs && !slices.Equal(pairs, orderPairs):
			return r, fmt.Errorf("streamed pairs %v, want %v", pairs, orderPairs)
		}
		return r, nil
	}
}

// send writes event e's frames, job 1's, on l.
func (l *orderLink) send(e orderEv, kind byte, token uint64) error {
	spec, err := join.SpecOf(join.Equi{})
	if err != nil {
		return err
	}
	keys := orderBase
	switch {
	case e.contrib && e.what == 'O':
		err = writeCtl(l.bw, wire.Open, 1, &open{Kind: kindContrib, Token: token})
	case e.what == 'O':
		err = writeCtl(l.bw, wire.Open, 1, &open{Kind: kind, Cond: spec, Token: token, Senders: 1,
			Stats: exec.StatsSpec{Seed: 1}})
	case e.what == 'B' && e.contrib:
		keys = orderShare
		fallthrough
	case e.what == 'B':
		err = writeRun(l.bw, 1, true, 0, 0, keys)
	case e.what == 'W':
		err = writeRun(l.bw, 1, false, e.win, e.epoch, winKeys(e.win))
	case e.what == 'E':
		err = writeFrameHeader(l.bw, wire.EOS, 1, 0)
	case e.what == 'A':
		err = writeFrameHeader(l.bw, wire.Abort, 1, 0)
	}
	return errors.Join(err, l.bw.Flush())
}

// settle waits until w holds what want says, or reports what it holds. The
// bytes charged count only once nothing is held: a job in flight holds its
// keys as its kind keeps them.
func settle(w *Worker, want Holdings) error {
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		h := w.Snapshot().Holdings
		if want.Jobs > 0 {
			want.Bytes = h.Bytes
		}
		if h == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("the worker holds %+v, want %+v", h, want)
		}
		if i < 200 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// nextJob runs job 2 on l, a pairs job of orderBase and orderWin, and
// returns its final reply once its pairs and the reply, less its stage
// record, are what they must be to the bit.
func (l *orderLink) nextJob() (reply, error) {
	spec, err := join.SpecOf(join.Equi{})
	if err == nil {
		err = errors.Join(writeCtl(l.bw, wire.Open, 2, &open{Kind: kindPairs, Cond: spec}),
			writeRun(l.bw, 2, true, 0, 0, orderBase), writeRun(l.bw, 2, false, 0, 0, orderWin),
			writeFrameHeader(l.bw, wire.EOS, 2, 0), l.bw.Flush())
	}
	if err != nil {
		return reply{}, fmt.Errorf("the next job: %w", err)
	}
	var pairs []exec.PairIdx
	for {
		f, ok, err := l.next(2)
		switch {
		case err != nil:
			return reply{}, fmt.Errorf("the next job's reply: %w", err)
		case !ok:
			return reply{}, errors.New("the link ended ahead of the next job's reply")
		}
		pairs = append(pairs, f.pairs...)
		if f.typ != wire.Reply {
			continue
		}
		r := f.r
		r.Stages = stage.Record{}
		if want := (reply{Final: true, InputR1: 4, InputR2: 3, Output: 3}); !slices.Equal(pairs, orderPairs) ||
			!bytes.Equal(r.append(nil), want.append(nil)) {
			return reply{}, fmt.Errorf("the next job replied %+v after pairs %v, want %+v after %v", r, pairs, want, orderPairs)
		}
		return f.r, nil
	}
}

// runOrder runs one sequence against w and checks it against the model.
func runOrder(w *Worker, s orderSeq) error {
	before := w.Snapshot()
	m := orderModel{kind: s.kind}
	token := newPeerToken()
	links := [2]*orderLink{dialOrderLink(w)}
	defer func() {
		for _, l := range links {
			if l != nil {
				l.close()
			}
		}
	}()
	// read is what the replies read carried, per kind: the worker tallies
	// every one.
	var read [numKinds]JobTally
	tally := func(kind byte, r *reply) {
		t := &read[kind]
		t.Replies++
		if r.Final {
			t.Finals++
		}
		t.Stages.Add(&r.Stages)
	}
	for i, e := range s.evs {
		li := 0
		if e.contrib {
			li = 1
		}
		if links[li] == nil {
			links[li] = dialOrderLink(w)
		}
		l := links[li]
		m.step(e)
		if e.what == 'H' {
			l.close()
			links[li] = nil
		} else if err := l.send(e, s.kind, token); err != nil && !m.fatal {
			return fmt.Errorf("event %d: %w", i, err)
		}
		for _, want := range m.want {
			wl := links[0]
			if want.contrib {
				wl = links[1]
			}
			r, err := wl.expect(want)
			if err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
			tally(want.kind, &r)
		}
		if m.fatal {
			if f, ok, err := l.next(1); ok || err != nil {
				return fmt.Errorf("event %d: the link goes on (%+v, %v), want it ended", i, f, err)
			}
			l.close()
			links[li] = nil
		}
		if err := settle(w, m.holdings()); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	if l := links[0]; l != nil {
		r, err := l.nextJob()
		if err != nil {
			return err
		}
		tally(kindPairs, &r)
		m.grants++
		if err := settle(w, m.holdings()); err != nil {
			return fmt.Errorf("after the next job: %w", err)
		}
	}
	for i, l := range links {
		if l != nil {
			l.close()
			links[i] = nil
		}
	}
	if err := settle(w, Holdings{}); err != nil {
		return fmt.Errorf("after close: %w", err)
	}
	after := w.Snapshot()
	for k, name := range orderNames {
		want, was := read[k], before.Jobs[name]
		want.Replies += was.Replies
		want.Finals += was.Finals
		want.Stages.Add(&was.Stages)
		if got := after.Jobs[name]; got != want {
			return fmt.Errorf("the %s tally reads %+v after %+v; the sequence read %+v", name, got, was, read[k])
		}
	}
	a, b := after.Admission, before.Admission
	if grants := a.FastPath + a.Dispatched - b.FastPath - b.Dispatched; grants != int64(m.grants) {
		return fmt.Errorf("%d admission slots granted, want %d", grants, m.grants)
	}
	// A count job publishes the side it sealed whole, which is always
	// orderBase's: one side at most, whichever sequences ran before.
	if n := after.Cache.Entries; n > 1 {
		return fmt.Errorf("the build cache holds %d sides", n)
	}
	return nil
}

// TestArrivalOrderJobsRefuseChunks pins the text of each refusal a job's
// frames or its OPEN earn, which the sweep checks only as a refusal: a run
// its kind does not take, past its epoch or after its run's end, and the
// refusals an OPEN settles itself, outside the sweep's alphabet (a plan job
// or a contribution naming a sender past maxPeerSenders, an unknown condition
// on every kind that joins). The job replies its error at EOS (a peer job
// acknowledges its open first); the next job on the connection answers
// bit-exactly.
func TestArrivalOrderJobsRefuseChunks(t *testing.T) {
	ws, _ := startWorkerSet(t, 1)
	spec, err := join.SpecOf(join.Equi{})
	if err != nil {
		t.Fatal(err)
	}
	type frame func(bw *bufio.Writer) error
	k := []join.Key{3}
	bk := func(e uint32) frame { return func(bw *bufio.Writer) error { return writeStreamBaseKeys(bw, 1, e, k) } }
	be := func(e uint32, n int) frame {
		return func(bw *bufio.Writer) error { return writeStreamBaseEnd(bw, 1, e, n) }
	}
	wk := func(w, e uint32) frame {
		return func(bw *bufio.Writer) error { return writeStreamWinKeys(bw, 1, w, e, k) }
	}
	we := func(w, e uint32, n int) frame {
		return func(bw *bufio.Writer) error { return writeStreamWinEnd(bw, 1, w, e, n) }
	}
	of := func(kind byte) open { return open{Kind: kind, Cond: spec, Senders: 1} }
	nosuch := join.Spec{Kind: "nosuch"}
	type row struct {
		name, want string
		o          open
		frames     []frame
	}
	rows := []row{
		{"window 1 on a pairs job", "past epoch 0, window 0", of(kindPairs), []frame{bk(0), be(0, 1), wk(1, 0)}},
		{"frame after its run's end on a pairs job", "after its run's end frame", of(kindPairs), []frame{bk(0), be(0, 1), bk(0)}},
		{"plan job's run past epoch 0", "past epoch 0, window 1", of(kindPlan), []frame{bk(1)}},
		{"window ahead of the base", "ahead of any sealed base", of(kindCount), []frame{wk(0, 0)}},
		{"base past epoch 0", "past epoch 0, window 0", of(kindCount), []frame{bk(1)}},
		{"base end past epoch 0", "past epoch 0, window 0", of(kindCount), []frame{bk(0), be(1, 1)}},
		{"window past window 0", "past epoch 0, window 0", of(kindCount), []frame{bk(0), be(0, 1), wk(1, 0)}},
		{"window end past epoch 0", "past epoch 0, window 0", of(kindCount), []frame{bk(0), be(0, 1), we(0, 1, 0)}},
		{"base frame after its end", "after its run's end frame", of(kindCount), []frame{bk(0), be(0, 1), bk(0)}},
		{"window end after its end", "after its run's end frame", of(kindCount), []frame{bk(0), be(0, 1), we(0, 0, 0), we(0, 0, 0)}},
		{"window on a peer-fed job", "on a peer-fed job", of(kindPeer), []frame{bk(0), be(0, 1), wk(0, 0)}},
		{"window end on a peer-fed job", "on a peer-fed job", of(kindPeer), []frame{bk(0), be(0, 1), we(0, 0, 0)}},
		{"base past epoch 0 on a peer-fed job", "past epoch 0, window 0", of(kindPeer), []frame{bk(2)}},
		{"window on a contribution", "on a contribution", open{Kind: kindContrib, Cond: spec}, []frame{bk(0), be(0, 1), wk(0, 0)}},
		{"plan job naming a sender past the bound", "names sender 4096", open{Kind: kindPlan, WorkerID: maxPeerSenders, Cond: spec}, []frame{bk(0), be(0, 1)}},
		{"contribution naming a sender past the bound", "names sender 4096", open{Kind: kindContrib, WorkerID: maxPeerSenders}, []frame{bk(0), be(0, 1)}},
		{"unknown condition on a count job", "unknown", open{Kind: kindCount, Cond: nosuch}, []frame{bk(0), be(0, 1)}},
		{"unknown condition on a pairs job", "unknown", open{Kind: kindPairs, Cond: nosuch}, []frame{bk(0), be(0, 1)}},
		{"unknown condition on a peer-fed job", "unknown", open{Kind: kindPeer, Cond: nosuch, Senders: 1}, []frame{bk(0), be(0, 1)}},
		{"unknown condition on a stream", "unknown", open{Kind: kindStream, Cond: nosuch}, []frame{bk(0), be(0, 1)}},
	}
	// The runs each kind takes at epoch 0: -1 is its base, w its window w. A
	// window on a kind that takes none is refused naming the kind; any other
	// run it does not take, as past its last run.
	for _, c := range []struct {
		name string
		kind byte
		runs []int
	}{
		{"count job", kindCount, []int{-1, 0}},
		{"pairs job", kindPairs, []int{-1, 0}},
		{"plan job", kindPlan, []int{-1, 0, 1}},
		{"peer-fed job", kindPeer, []int{-1}},
		{"contribution", kindContrib, []int{-1}},
	} {
		for run := -1; run <= 2; run++ {
			for e := range uint32(2) {
				if e == 0 && slices.Contains(c.runs, run) {
					continue
				}
				want := "past epoch 0"
				if run >= 0 && len(c.runs) == 1 {
					want = "on a " + c.name
				}
				name := fmt.Sprintf("%s's run %d at epoch %d", c.name, run, e)
				keys, end := wk(uint32(max(run, 0)), e), we(uint32(max(run, 0)), e, 0)
				if run < 0 {
					keys, end = bk(e), be(e, 0)
				}
				rows = append(rows, row{name + ", a key frame", want, of(c.kind), []frame{keys}},
					row{name + ", an end frame", want, of(c.kind), []frame{end}})
			}
		}
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			l := dialOrderLink(ws[0])
			defer l.close()
			tc.o.Token = newPeerToken()
			err := writeCtl(l.bw, wire.Open, 1, &tc.o)
			for _, f := range tc.frames {
				err = errors.Join(err, f(l.bw))
			}
			err = errors.Join(err, writeFrameHeader(l.bw, wire.EOS, 1, 0), l.bw.Flush())
			for err == nil {
				f, ok, rerr := l.next(1)
				switch {
				case rerr != nil || !ok:
					t.Fatalf("the link ended ahead of the final reply (%v)", rerr)
				case f.r.Final && !strings.Contains(f.r.Err, tc.want):
					t.Fatalf("replied %+v, want a refusal naming %q", f.r, tc.want)
				}
				if f.r.Final {
					break
				}
			}
			if err == nil {
				_, err = l.nextJob()
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
