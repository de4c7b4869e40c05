package netexec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"slices"
	"testing"

	"ewh/internal/bufpool"
	"ewh/internal/exec"
	"ewh/internal/join"
)

// frameHeaders is a writer that parses the frame stream written into it,
// keeps each frame's header and discards the payloads.
type frameHeaders struct {
	hdrs [][]byte
	cur  []byte
	skip int
}

func (f *frameHeaders) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if f.skip > 0 {
			k := min(f.skip, len(p))
			f.skip -= k
			p = p[k:]
			continue
		}
		k := min(v3FrameHeaderLen-len(f.cur), len(p))
		f.cur = append(f.cur, p[:k]...)
		p = p[k:]
		if len(f.cur) == v3FrameHeaderLen {
			f.skip = int(binary.LittleEndian.Uint32(f.cur[v3FrameHeaderLen-4:]))
			f.hdrs = append(f.hdrs, f.cur)
			f.cur = nil
		}
	}
	return n, nil
}

// TestMaximalKeyFramesPassTheHeaderReaders drives every key-frame writer with
// a run one key past the per-frame cap and feeds each frame header it wrote
// to the reader on the other side: the frame cap has to admit a FULL frame
// under every sub-header (STREAMBASE and STREAMWIN share maxBlockKeys but lead
// with 8 and 12 bytes, and used to declare more than the reader accepted —
// connection-fatal for any share of 2^24 keys).
func TestMaximalKeyFramesPassTheHeaderReaders(t *testing.T) {
	keys := make([]join.Key, maxBlockKeys+1) // never written: stays untouched zero pages
	session := []struct {
		name   string
		subHdr int
		write  func(bw *bufio.Writer) error
	}{
		{"STREAMBASE", streamBaseHdrLen, func(bw *bufio.Writer) error { return writeStreamBaseKeys(bw, 1, 1, keys) }},
		{"STREAMWIN", streamWinHdrLen, func(bw *bufio.Writer) error { return writeStreamWinKeys(bw, 1, 0, 1, keys) }},
	}
	for _, c := range session {
		fh := &frameHeaders{}
		bw := bufio.NewWriter(fh)
		if err := c.write(bw); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(fh.hdrs) != 2 {
			t.Fatalf("%s: %d frames for maxBlockKeys+1 keys, want a full one and a one-key one", c.name, len(fh.hdrs))
		}
		for i, h := range fh.hdrs {
			_, _, n, err := readV3FrameHeader(bytes.NewReader(h))
			if err != nil {
				t.Errorf("%s frame %d: the worker's header reader refuses what the writer framed: %v", c.name, i, err)
			}
			if want := c.subHdr + 8*[]int{maxBlockKeys, 1}[i]; err == nil && n != want {
				t.Errorf("%s frame %d declares %d bytes, want %d", c.name, i, n, want)
			}
		}
	}

	// The mesh splits at the same cap: every frame of a contribution one key
	// past it passes the header reader, its blocks a full one and a one-key
	// one, as does the largest payload any key frame may declare.
	fh := &frameHeaders{}
	pc := &peerConn{bw: bufio.NewWriter(fh)}
	if err := pc.writeContribution(1, 0, keys); err != nil {
		t.Fatal(err)
	}
	if len(fh.hdrs) != 3 {
		t.Fatalf("peer contribution framed as %d frames, want head + 2 blocks", len(fh.hdrs))
	}
	var full [v3FrameHeaderLen]byte
	binary.LittleEndian.PutUint32(full[5:], maxKeySubHdrLen+8*maxBlockKeys)
	for i, h := range append(fh.hdrs, full[:]) {
		_, _, n, err := readV3FrameHeader(bytes.NewReader(h))
		if err != nil {
			t.Errorf("peer frame %d: %v", i, err)
		}
		if i == 1 || i == 2 {
			if want := peerBlockHeaderLen + 8*[]int{maxBlockKeys, 1}[i-1]; err == nil && n != want {
				t.Errorf("peer block %d declares %d bytes, want %d", i-1, n, want)
			}
		}
	}
}

// TestRunningCountCap pins the one running-count predicate at its boundary
// and the decoder applying it to every frame type that accumulates: a
// relation, an epoch's base share or a window's share may reach
// MaxRelationTuples and not pass it.
func TestRunningCountCap(t *testing.T) {
	for _, c := range []struct {
		have, add int
		over      bool
	}{
		{0, MaxRelationTuples, false},
		{MaxRelationTuples - 1, 1, false},
		{MaxRelationTuples, 0, false},
		{MaxRelationTuples, 1, true},
		{MaxRelationTuples - 5, 6, true},
		{0, MaxRelationTuples + 1, true},
	} {
		if got := overRelationCap(c.have, c.add); got != c.over {
			t.Errorf("overRelationCap(%d, %d) = %v, want %v", c.have, c.add, got, c.over)
		}
	}

	frames := recordedKeyFrames(t)
	for _, typ := range []byte{frameV3StreamBase, frameV3StreamWin} {
		// A count job and a pairs job, each feeding its goroutine.
		for _, j := range []*sessJob{{stream: &sessStream{resTag: 1}}, {stream: &sessStream{resTag: 1}, pairs: true}} {
			for i := range j.rels {
				// One tuple short of the cap on whichever relation the type counts.
				j.rels[i] = sessRel{pos: MaxRelationTuples - 1}
			}
			payload := frames[typ] // carries two keys
			br := bufio.NewReader(bytes.NewReader(payload))
			err := j.readKeyFrame(br, typ, len(payload))
			if _, ok := err.(*protoErr); !ok {
				t.Errorf("frame type %d past the cap (pairs %v): got %v, want a job-level refusal", typ, j.pairs, err)
			}
			if br.Buffered() != 0 {
				t.Errorf("frame type %d (pairs %v): refusal left %d bytes of the frame unread", typ, j.pairs, br.Buffered())
			}
		}
	}
}

// recordedKeyFrames returns one frame payload (sub-header + two keys) per
// key-carrying frame type, as the writers frame it; every one names epoch 0 /
// window 0 — or, on the mesh, token 1 / sender 1.
func recordedKeyFrames(t testing.TB) map[byte][]byte {
	t.Helper()
	keys := []join.Key{7, -7}
	out := make(map[byte][]byte)
	for typ, write := range map[byte]func(*bytes.Buffer) error{
		frameV3StreamBase: func(b *bytes.Buffer) error { return writeStreamBaseKeys(b, 1, 0, keys) },
		frameV3StreamWin:  func(b *bytes.Buffer) error { return writeStreamWinKeys(b, 1, 0, 0, keys) },
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		out[typ] = b.Bytes()[v3FrameHeaderLen:]
	}
	// A contribution is its head frame, then the block frames.
	var b bytes.Buffer
	if err := (&peerConn{bw: bufio.NewWriter(&b)}).writeContribution(1, 1, keys); err != nil {
		t.Fatal(err)
	}
	out[framePeerBlock] = b.Bytes()[2*v3FrameHeaderLen+peerHeadLen:]
	return out
}

// FuzzKeyFrame feeds the key-frame decoders arbitrary payloads under each
// frame type and each job kind that may receive it, framed exactly as long as
// they are. They must never panic; they may buffer only what the frame
// declared; an accepted frame and a job-level refusal both consume exactly
// the frame (the next header parses); only a frame shorter than its
// sub-header is connection-fatal; an accepted frame charged the ledger
// exactly its keys, and the job's release gives them back. The re-key seeds
// are window-1 frames: a plan job's re-key column, refused on any other job.
func FuzzKeyFrame(f *testing.F) {
	// A case is a frame type and the job decoding it: res is the resident
	// relation of a job feeding a join goroutine (0 a STREAMOPEN job, 1 a
	// count job past its first base frame, 2 a peer-fed job), or pairsJob or
	// planJob, OPENJOB jobs whose goroutine keeps their runs in arrival order.
	const pairsJob, planJob = -1, -2
	cases := []struct {
		typ byte
		res int
	}{
		{frameV3StreamBase, 0}, {frameV3StreamWin, 0},
		{frameV3StreamBase, 1}, {frameV3StreamWin, 1},
		{frameV3StreamBase, 2}, {frameV3StreamWin, 2},
		{frameV3StreamBase, pairsJob}, {frameV3StreamWin, pairsJob},
		{frameV3StreamBase, planJob}, {frameV3StreamWin, planJob},
		{framePeerBlock, 0},
	}
	for i, c := range cases {
		f.Add(byte(i), recordedKeyFrames(f)[c.typ])
	}
	for _, c := range []struct {
		sel  byte
		keys int
	}{{3, 2}, {7, 2}, {9, 2}, {9, 3}} { // a count job's, a pairs job's, a plan job's (twice)
		var b bytes.Buffer
		if err := writeStreamWinKeys(&b, 1, 1, 0, make([]join.Key, c.keys)); err != nil {
			f.Fatal(err)
		}
		f.Add(c.sel, b.Bytes()[v3FrameHeaderLen:])
	}
	closed := make(chan struct{})
	close(closed)
	f.Fuzz(func(t *testing.T, sel byte, payload []byte) {
		c := cases[int(sel)%len(cases)]
		typ := c.typ
		w := ListenWorkerOn(nil)
		if typ == framePeerBlock {
			fuzzPeerBlock(t, w, payload)
			return
		}
		// The job's goroutine is a channel the test drains.
		j := &sessJob{ws: &workerSession{w: w}, pairs: c.res == pairsJob, peerFed: c.res == 2}
		resTag := byte(1) // a pairs or plan job's, as every OPENJOB job's
		if c.res >= 0 {
			resTag = byte(c.res)
		}
		j.stream = &sessStream{resTag: resTag, ch: make(chan streamEvent, 1), done: closed}
		if c.res == planJob {
			j.plan = &planSpec{}
		}
		const sentinel = 0xEE
		var next [v3FrameHeaderLen]byte
		next[0] = sentinel
		br := bufio.NewReader(bytes.NewReader(append(append([]byte(nil), payload...), next[:]...)))

		n, hdr := len(payload), keySubHdrLen[typ]
		err := j.readKeyFrame(br, typ, n)
		_, refused := err.(*protoErr)
		switch {
		case err == nil || refused:
			if got, _, _, herr := readV3FrameHeader(br); herr != nil || got != sentinel {
				t.Fatalf("type %d, %d-byte frame (err %v): the next header reads as (%d, %v)", typ, n, err, got, herr)
			}
		case n >= hdr:
			t.Fatalf("type %d: a frame holding its whole sub-header was connection-fatal: %v", typ, err)
		}
		buffered := 0
		select {
		case ev := <-j.stream.ch:
			buffered = len(ev.keys)
			bufpool.Keys.Put(ev.keys)
		default:
		}
		if err == nil && hdr+8*buffered != n {
			t.Fatalf("type %d: accepted a %d-byte frame and buffered %d keys", typ, n, buffered)
		}
		if err != nil && buffered != 0 {
			t.Fatalf("type %d: refused a frame (%v) yet buffered %d keys", typ, err, buffered)
		}
		if held := w.ledger.heldBytes(); err == nil && held != 8*int64(buffered) {
			t.Fatalf("type %d: %d keys buffered, %d bytes charged", typ, buffered, held)
		}
		j.release()
		if held := w.ledger.heldBytes(); held != 0 {
			t.Fatalf("type %d: %d bytes still charged after release", typ, held)
		}
	})
}

// fuzzPeerBlock is FuzzKeyFrame's mesh arm: handlePeer serves a connection
// carrying the head of the contribution the recorded PEERBLOCK belongs to
// (token 1, sender 1, two keys), the fuzzed block, and a sentinel head for a
// second token. The sentinel registers exactly when the block was consumed to
// its last byte and did not kill the connection.
func fuzzPeerBlock(t *testing.T, w *Worker, payload []byte) {
	const token, sender, sentinel = 1, 1, 0xfeedfacecafebeef
	var stream bytes.Buffer
	head := func(tok uint64, count uint32) {
		var h [peerHeadLen]byte
		binary.LittleEndian.PutUint64(h[:], tok)
		binary.LittleEndian.PutUint32(h[8:], sender)
		binary.LittleEndian.PutUint32(h[12:], count)
		_ = writeV3FrameHeader(&stream, framePeerHead, 0, peerHeadLen)
		stream.Write(h[:])
	}
	head(token, 2)
	_ = writeV3FrameHeader(&stream, framePeerBlock, 0, len(payload))
	stream.Write(payload)
	head(sentinel, 0)
	near, far := net.Pipe() // handlePeer only asks the connection its address
	defer near.Close()
	defer far.Close()
	w.handlePeer(bufio.NewReader(&stream), near)

	w.peersMu.Lock()
	st, reached := w.peerStates[token], w.peerStates[sentinel] != nil
	w.peersMu.Unlock()
	if whole := len(payload) >= peerBlockHeaderLen; reached != whole {
		t.Fatalf("%d-byte block: the head after it registered = %v, want %v", len(payload), reached, whole)
	}
	st.mu.Lock()
	buffered := 0
	for _, c := range st.contrib {
		buffered += c.n
	}
	st.mu.Unlock()
	if buffered > 2 || 8*buffered > len(payload) {
		t.Fatalf("%d-byte block buffered %d keys of a 2-key contribution", len(payload), buffered)
	}
	for _, tok := range []uint64{token, sentinel} {
		w.dropPeerState(tok) // recycles what the contribution still holds
	}
}

// TestDecodedPairsChunkServedFromItsClass decodes a 40,000-pair PAIRS frame,
// recycles its chunk as the coordinator's read loop does, then decodes a
// 10-pair frame: its chunk must come from its own size class. One pool for
// every size handed the big buffer back, pinning it for as long as the small
// chunk lived.
func TestDecodedPairsChunkServedFromItsClass(t *testing.T) {
	decode := func(count int) []exec.PairIdx {
		pairs := make([]exec.PairIdx, count)
		for i := range pairs {
			pairs[i] = exec.PairIdx{I1: uint32(i), I2: uint32(count - i)}
		}
		var b bytes.Buffer
		bw := bufio.NewWriter(&b)
		if err := writePairsFrame(bw, 1, pairs); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		typ, _, n, err := readV3FrameHeader(&b)
		if err != nil || typ != frameV3Pairs {
			t.Fatalf("frame type %d, err %v; want a PAIRS frame", typ, err)
		}
		got, err := readPairsPayload(&b, n)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, pairs) {
			t.Fatalf("%d pairs decoded differ from the %d written", len(got), count)
		}
		return got
	}
	exec.PairBufs.Put(decode(40_000))
	small := decode(10)
	// 10 pairs round up to the pool's 64-element floor, the class size for 10.
	if cap(small) != 64 {
		t.Fatalf("a 10-pair chunk has capacity %d, want its class size 64", cap(small))
	}
	exec.PairBufs.Put(small)
}
