package netexec

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"ewh/internal/bufpool"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/wire"
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
		k := min(wire.HeaderLen-len(f.cur), len(p))
		f.cur = append(f.cur, p[:k]...)
		p = p[k:]
		if len(f.cur) == wire.HeaderLen {
			_, _, n := wire.Header(f.cur)
			f.skip = int(n)
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
			_, _, n, err := readFrameHeader(bytes.NewReader(h))
			if err != nil {
				t.Errorf("%s frame %d: the worker's header reader refuses what the writer framed: %v", c.name, i, err)
			}
			if want := c.subHdr + 8*[]int{maxBlockKeys, 1}[i]; err == nil && n != want {
				t.Errorf("%s frame %d declares %d bytes, want %d", c.name, i, n, want)
			}
		}
	}

	// The largest payload any key frame may declare passes too.
	var full [wire.HeaderLen]byte
	wire.PutHeader(full[:], wire.StreamWin, 1, maxKeySubHdrLen+8*maxBlockKeys)
	if _, _, _, err := readFrameHeader(bytes.NewReader(full[:])); err != nil {
		t.Errorf("a full frame under the longest sub-header: %v", err)
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
	for _, typ := range []byte{wire.StreamBase, wire.StreamWin} {
		// A count job and a pairs job, each feeding its goroutine.
		for _, j := range []*sessJob{{kind: kindCount}, {kind: kindPairs}} {
			for i := range j.rels {
				// One tuple short of the cap on whichever relation the type counts.
				j.rels[i] = sessRel{pos: MaxRelationTuples - 1}
			}
			payload := frames[typ] // carries two keys
			br := bufio.NewReader(bytes.NewReader(payload))
			err := j.readKeyFrame(br, typ, len(payload))
			if _, ok := err.(*protoErr); !ok {
				t.Errorf("frame type %d past the cap (kind %d): got %v, want a job-level refusal", typ, j.kind, err)
			}
			if br.Buffered() != 0 {
				t.Errorf("frame type %d (kind %d): refusal left %d bytes of the frame unread", typ, j.kind, br.Buffered())
			}
		}
	}
}

// recordedKeyFrames returns one frame payload (sub-header + two keys) per
// key-carrying frame type, as the writers frame it; every one names epoch 0 /
// window 0.
func recordedKeyFrames(t testing.TB) map[byte][]byte {
	t.Helper()
	keys := []join.Key{7, -7}
	out := make(map[byte][]byte)
	for typ, write := range map[byte]func(*bytes.Buffer) error{
		wire.StreamBase: func(b *bytes.Buffer) error { return writeStreamBaseKeys(b, 1, 0, keys) },
		wire.StreamWin:  func(b *bytes.Buffer) error { return writeStreamWinKeys(b, 1, 0, 0, keys) },
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		out[typ] = b.Bytes()[wire.HeaderLen:]
	}
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
// The contribution arm is a base run under a contribution's open, the one run
// it takes; its window frames are refused.
func FuzzKeyFrame(f *testing.F) {
	// A case is a frame type and the kind of the job decoding it: a stream,
	// count or peer job feeds its join goroutine chunk by chunk, a pairs,
	// plan or contribution job's goroutine keeps its runs in arrival order.
	cases := []struct {
		typ  byte
		kind byte
	}{
		{wire.StreamBase, kindStream}, {wire.StreamWin, kindStream},
		{wire.StreamBase, kindCount}, {wire.StreamWin, kindCount},
		{wire.StreamBase, kindPeer}, {wire.StreamWin, kindPeer},
		{wire.StreamBase, kindPairs}, {wire.StreamWin, kindPairs},
		{wire.StreamBase, kindPlan}, {wire.StreamWin, kindPlan},
		{wire.StreamBase, kindContrib}, {wire.StreamWin, kindContrib},
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
		f.Add(c.sel, b.Bytes()[wire.HeaderLen:])
	}
	closed := make(chan struct{})
	close(closed)
	f.Fuzz(func(t *testing.T, sel byte, payload []byte) {
		c := cases[int(sel)%len(cases)]
		typ := c.typ
		w := ListenWorkerOn(nil)
		// The job's goroutine is a channel the test drains.
		j := &sessJob{ws: &workerSession{w: w}, kind: c.kind, ch: make(chan streamEvent, 1), done: closed}
		const sentinel = 0xEE
		var next [wire.HeaderLen]byte
		next[0] = sentinel
		br := bufio.NewReader(bytes.NewReader(append(append([]byte(nil), payload...), next[:]...)))

		n, hdr := len(payload), keySubHdrLen[typ]
		err := j.readKeyFrame(br, typ, n)
		_, refused := err.(*protoErr)
		switch {
		case err == nil || refused:
			if got, _, _, herr := readFrameHeader(br); herr != nil || got != sentinel {
				t.Fatalf("type %d, %d-byte frame (err %v): the next header reads as (%d, %v)", typ, n, err, got, herr)
			}
		case n >= hdr:
			t.Fatalf("type %d: a frame holding its whole sub-header was connection-fatal: %v", typ, err)
		}
		buffered := 0
		select {
		case ev := <-j.ch:
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
		if held := w.Snapshot().Holdings.Bytes; err == nil && held != 8*int64(buffered) {
			t.Fatalf("type %d: %d keys buffered, %d bytes charged", typ, buffered, held)
		}
		j.release()
		if held := w.Snapshot().Holdings.Bytes; held != 0 {
			t.Fatalf("type %d: %d bytes still charged after release", typ, held)
		}
	})
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
		typ, _, n, err := readFrameHeader(&b)
		if err != nil || typ != wire.Pairs {
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

// wireKeys and wirePairs are the blocks whose wire bytes
// TestDataFrameWireBytes writes out by hand.
var (
	wireKeys  = []join.Key{0, 1, -1, math.MinInt64, math.MaxInt64, 0x0102030405060708}
	wirePairs = []exec.PairIdx{{I1: 0x01020304, I2: 0xa0b0c0d0}, {I1: 0, I2: math.MaxUint32}}
)

// TestDataFrameWireBytes pins the data frames' wire form by literal bytes,
// written out by hand little-endian, in both directions: the writers must
// produce exactly these bytes and the decoders must read them back. A round
// trip alone (FuzzKeyFrame) passes any codec that agrees with itself.
func TestDataFrameWireBytes(t *testing.T) {
	keys := wireKeys
	wantKeys := []byte{
		wire.StreamBase, 0x0d, 0x0c, 0x0b, 0x0a, 56, 0, 0, 0, // type, job 0x0a0b0c0d, payload 8+6·8
		0x44, 0x33, 0x22, 0x11, 6, 0, 0, 0, // epoch 0x11223344, count 6
		0, 0, 0, 0, 0, 0, 0, 0,
		1, 0, 0, 0, 0, 0, 0, 0,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 0, 0, 0, 0, 0x80,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
		8, 7, 6, 5, 4, 3, 2, 1,
	}
	var b bytes.Buffer
	if err := writeStreamBaseKeys(&b, 0x0a0b0c0d, 0x11223344, keys); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), wantKeys) {
		t.Fatalf("STREAMBASE frame\n got % x\nwant % x", b.Bytes(), wantKeys)
	}
	got := make([]join.Key, len(keys))
	if err := readKeysLE(bytes.NewReader(wantKeys[wire.HeaderLen+streamBaseHdrLen:]), got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, keys) {
		t.Fatalf("decoded keys %v, want %v", got, keys)
	}

	pairs := wirePairs
	wantPairs := []byte{
		wire.Pairs, 7, 0, 0, 0, 20, 0, 0, 0, // type, job 7, payload 4+2·8
		2, 0, 0, 0, // count 2
		0x04, 0x03, 0x02, 0x01, 0xd0, 0xc0, 0xb0, 0xa0,
		0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff,
	}
	b.Reset()
	bw := bufio.NewWriter(&b)
	if err := writePairsFrame(bw, 7, pairs); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), wantPairs) {
		t.Fatalf("PAIRS frame\n got % x\nwant % x", b.Bytes(), wantPairs)
	}
	gotPairs, err := readPairsPayload(bytes.NewReader(wantPairs[wire.HeaderLen:]), len(wantPairs)-wire.HeaderLen)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotPairs, pairs) {
		t.Fatalf("decoded pairs %v, want %v", gotPairs, pairs)
	}
	exec.PairBufs.Put(gotPairs)
}

// TestStagedCodecMatchesWire holds the staged codec, a big-endian host's, to
// the one this host runs: wireKeys and wirePairs, and blocks longer than one
// scratch buffer (a staging chunk holds scratchLen/8 = 8,192 elements),
// encode to the same bytes and decode back.
func TestStagedCodecMatchesWire(t *testing.T) {
	const n = scratchLen/8 + 3
	keys, pairs := make([]join.Key, n), make([]exec.PairIdx, n)
	for i := range n {
		keys[i] = join.Key(uint64(i+1) * 0x9e3779b97f4a7c15)
		pairs[i] = exec.PairIdx{I1: uint32(i), I2: uint32(i+1) * 2654435761}
	}
	for _, keys := range [][]join.Key{wireKeys, keys} {
		matchStaged(t, keys, writeKeysLE, writeKeysStaged, readKeysStaged)
	}
	for _, pairs := range [][]exec.PairIdx{wirePairs, pairs} {
		matchStaged(t, pairs, writePairsLE, writePairsStaged, readPairsStaged)
	}
}

// matchStaged checks that staged writes block as write does, and that read
// decodes those bytes back to block.
func matchStaged[T comparable](t *testing.T, block []T,
	write, staged func(io.Writer, []T) error, read func(io.Reader, []T) error) {
	t.Helper()
	var want, got bytes.Buffer
	if err := errors.Join(write(&want, block), staged(&got, block)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%d elements: the staged codec wrote %d bytes unlike the wire's %d", len(block), got.Len(), want.Len())
	}
	back := make([]T, len(block))
	if err := read(&got, back); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, block) {
		t.Fatalf("%d elements: the staged codec read back other elements", len(block))
	}
}
