package netexec

import (
	"encoding/binary"
	"fmt"
	"io"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/planio"
	"ewh/internal/stage"
)

// Control records: OPEN, PLAN2 and REPLY, a few per job. Each is
// fixed-layout little-endian in field order, read through planio's Cursor:
// integers at their width, a bool as one byte 0 or 1, a byte string or
// string as [len u32][bytes], a list as [n u32][n elements]. Decoding is
// strict — an unknown kind or flag, a truncated field, more than
// maxPeerSenders peers or peer counts, or trailing bytes refuse the frame,
// connection-fatally — so whatever decodes re-encodes byte for byte
// (FuzzControlRecord).

// Job kinds an OPEN names. Its kind fixes what a job ships and what its
// worker replies, from the open on:
//   - count: both relations stream in; the reply carries the match count.
//   - pairs: the matches stream back as PAIRS frames.
//   - plan: a stage-1 job whose matches feed the stage-2 plan. Its open
//     carries the statistics request (stats, token); the worker replies its
//     summary, waits for PLAN2 and re-shuffles its matches to its peers.
//   - peer: a stage-2 job whose relation 1 is the contributions of its
//     senders peers under token; the coordinator ships its relation 2 WHILE
//     stage 1 still runs.
//   - stream: a continuous join whose windows each reply a count and a
//     summary sized by stats.
//   - contribution: a stage-1 plan job's share for one stage-2 peer, sent by
//     that job's worker: sender WorkerID's base run for transfer token, which
//     the reply says the receiver committed.
const (
	kindCount byte = iota
	kindPairs
	kindPlan
	kindPeer
	kindStream
	kindContrib
	numKinds
)

// jobKind is what an OPEN of one kind takes. Every kind but a stream runs at
// epoch 0 and ends each run once: its base fills relation slot base, window w
// slot 1+w. A stream's base is relation 2 and its windows relation 1, over
// any epoch and window, which its goroutine checks.
type jobKind struct {
	name    string // in a worker's Snapshot
	base    int    // the base run's slot: a fed job's resident side
	wins    int    // windows at epoch 0; -1 for a stream's any
	ordered bool   // keeps its runs in arrival order to EOS
	admit   bool   // its open takes an admission slot
	sender  bool   // its open names a sender, below maxPeerSenders
}

// kinds is every job kind's row. A peer job's relation 1 is its transfer,
// and a contribution's one run is its share.
var kinds = [numKinds]jobKind{
	kindCount:   {name: "count", wins: 1, admit: true},
	kindPairs:   {name: "pairs", wins: 1, ordered: true, admit: true},
	kindPlan:    {name: "plan", wins: 2, ordered: true, admit: true, sender: true},
	kindPeer:    {name: "peer", base: 1},
	kindStream:  {name: "stream", base: 1, wins: -1},
	kindContrib: {name: "contrib", ordered: true, sender: true},
}

// open is the OPEN record (frame 10). Counts travel in each relation's end
// frame, so a job can stream its first relation before the second one's
// shuffle has finished.
type open struct {
	Kind     byte
	WorkerID int
	Cond     join.Spec
	Stats    exec.StatsSpec // plan, stream
	Token    uint64         // plan, peer, contribution
	Senders  int            // peer
}

// plan2 is the PLAN2 record (frame 22), the answer to a plan job's summary:
// Plan is a planio-encoded artifact (scheme + routing seed), Peers the
// stage-2 worker address map, and Self this worker's own index in Peers (-1
// when it hosts no stage-2 worker), so self-contributions move in memory
// instead of over a socket.
type plan2 struct {
	Plan  []byte
	Self  int
	Peers []string
}

// reply is the REPLY record (frame 16), every answer a worker sends but
// PAIRS. A final reply ends the sub-job: its totals, PeerCounts (a stage-1
// plan job's per-receiver routed counts, the ONLY thing about the
// re-shuffled intermediate the coordinator ever receives) and
// BuildOverlapped (the routed sub-blocks a count or peer job took BEFORE the
// read loop decoded its EOS — a base chunk kept for the seal, a probe chunk
// counted or kept for the sweep: the join overlapped the still-streaming
// scatter). An interim reply answers a stream window (Window, Epoch, its
// input in InputR1 and count in Output) or carries a plan job's Summary.
// Stages is the job goroutine's record, since its previous window reply for
// a stream; only its job stages travel.
// Either kind may carry Err: Code types it (codeAdmission, codeQuota,
// codeDraining) and FaultAddr names the PEER whose failure caused it.
type reply struct {
	Final                    bool
	Window, Epoch            uint32
	InputR1, InputR2, Output int64
	BuildOverlapped          int64
	Stages                   stage.Record
	PeerCounts               []int64
	Summary                  []byte
	Err                      string
	Code                     int
	FaultAddr                string
}

// ctlRecord is a control record: append encodes it after b, decode reads it
// off a cursor whose sticky error says whether it succeeded.
type ctlRecord interface {
	append(b []byte) []byte
	decode(c *planio.Cursor)
}

var le = binary.LittleEndian

func appendBlob[S string | []byte](b []byte, s S) []byte {
	return append(le.AppendUint32(b, uint32(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func readBool(c *planio.Cursor, what string) bool {
	v := c.U8()
	if v > 1 {
		c.Fail(fmt.Errorf("%s flag %d", what, v))
	}
	return v == 1
}

func (o *open) append(b []byte) []byte {
	b = le.AppendUint32(append(b, o.Kind), uint32(o.WorkerID))
	b = append(le.AppendUint64(appendBlob(b, o.Cond.Kind), uint64(o.Cond.Beta)), byte(o.Cond.Op))
	b = le.AppendUint32(le.AppendUint32(b, uint32(o.Stats.Cap)), uint32(o.Stats.Buckets))
	b = appendBool(le.AppendUint64(b, o.Stats.Seed), o.Stats.Adaptive)
	return le.AppendUint32(le.AppendUint64(b, o.Token), uint32(o.Senders))
}

func (o *open) decode(c *planio.Cursor) {
	if o.Kind = c.U8(); o.Kind >= numKinds {
		c.Fail(fmt.Errorf("open names job kind %d", o.Kind))
	}
	o.WorkerID = int(c.U32())
	o.Cond = join.Spec{Kind: string(c.Blob()), Beta: int64(c.U64()), Op: join.Op(c.U8())}
	o.Stats = exec.StatsSpec{Cap: int(c.U32()), Buckets: int(c.U32()), Seed: c.U64()}
	o.Stats.Adaptive = readBool(c, "adaptive")
	o.Token, o.Senders = c.U64(), int(c.U32())
}

func (p *plan2) append(b []byte) []byte {
	b = le.AppendUint32(appendBlob(b, p.Plan), uint32(int32(p.Self)))
	b = le.AppendUint32(b, uint32(len(p.Peers)))
	for _, addr := range p.Peers {
		b = appendBlob(b, addr)
	}
	return b
}

func (p *plan2) decode(c *planio.Cursor) {
	p.Plan, p.Self = c.Blob(), int(int32(c.U32()))
	p.Peers = make([]string, c.Count("peer", maxPeerSenders, 4))
	for i := range p.Peers {
		p.Peers[i] = string(c.Blob())
	}
}

func (r *reply) append(b []byte) []byte {
	b = le.AppendUint32(le.AppendUint32(appendBool(b, r.Final), r.Window), r.Epoch)
	for _, v := range [...]int64{r.InputR1, r.InputR2, r.Output, r.BuildOverlapped} {
		b = le.AppendUint64(b, uint64(v))
	}
	for _, v := range r.Stages[stage.FirstJob:] {
		b = le.AppendUint64(b, uint64(v))
	}
	b = le.AppendUint32(b, uint32(len(r.PeerCounts)))
	for _, v := range r.PeerCounts {
		b = le.AppendUint64(b, uint64(v))
	}
	b = append(appendBlob(appendBlob(b, r.Summary), r.Err), byte(r.Code))
	return appendBlob(b, r.FaultAddr)
}

func (r *reply) decode(c *planio.Cursor) {
	r.Final = readBool(c, "final")
	r.Window, r.Epoch = c.U32(), c.U32()
	r.InputR1, r.InputR2, r.Output = int64(c.U64()), int64(c.U64()), int64(c.U64())
	r.BuildOverlapped = int64(c.U64())
	for s := stage.FirstJob; s < stage.NumStages; s++ {
		r.Stages[s] = int64(c.U64())
	}
	if n := c.Count("peer count", maxPeerSenders, 8); n > 0 {
		r.PeerCounts = make([]int64, n)
		for i := range r.PeerCounts {
			r.PeerCounts[i] = int64(c.U64())
		}
	}
	r.Summary, r.Err = c.Blob(), string(c.Blob())
	r.Code, r.FaultAddr = int(c.U8()), string(c.Blob())
}

// writeCtl sends one control frame: header and record in one write.
func writeCtl(w io.Writer, typ byte, job uint32, rec ctlRecord) error {
	b := rec.append(make([]byte, v3FrameHeaderLen, 128))
	n := len(b) - v3FrameHeaderLen
	if n > maxControlPayload {
		return fmt.Errorf("frame type %d payload %d exceeds control-frame limit %d", typ, n, maxControlPayload)
	}
	putFrameHeader(b, typ, job, n)
	_, err := w.Write(b)
	return err
}

// controlReadAhead is the most readCtl allocates ahead of the payload bytes
// that have arrived.
const controlReadAhead = 64 << 10

// readCtl decodes a control frame's n payload bytes (already past the frame
// header) into rec, refusing a payload over limit before it reads a byte.
// The buffer starts at min(n, controlReadAhead) and doubles only as bytes
// arrive, so a stalled header costs what was sent, not what it declared; a
// small frame still gets one exactly sized buffer.
func readCtl(r io.Reader, n, limit int, rec ctlRecord) error {
	if n > limit {
		return fmt.Errorf("control frame payload %d exceeds limit %d", n, limit)
	}
	payload := make([]byte, 0, min(n, controlReadAhead))
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = append(make([]byte, 0, len(payload)+min(len(payload), n-len(payload))), payload...)
		}
		m, err := io.ReadFull(r, payload[len(payload):cap(payload)])
		if err != nil {
			return err
		}
		payload = payload[:len(payload)+m]
	}
	return decodeCtl(payload, rec)
}

// decodeCtl decodes one whole control record.
func decodeCtl(payload []byte, rec ctlRecord) error {
	c := planio.NewCursor(payload)
	rec.decode(c)
	return c.Done("control record")
}
