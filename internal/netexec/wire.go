package netexec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sync"

	"ewh/internal/exec"
	"ewh/internal/join"
)

// Wire framing ("EWHB"). All integers are little-endian. Every connection
// opens with the prelude
//
//	magic "EWHB" | uint16 version
//
// and the version fixes the framing of everything after it:
//
//	version 3, coordinator session: [type u8][job u32][payloadLen u32][payload]
//	version 4, worker→worker peer:  [type u8][payloadLen u32][payload]
//
// Control frames (opens, plans, metrics — a few per job) carry gob inside
// their frame for flexibility; data frames (key blocks, chunks, pairs) are
// raw fixed-width binary, so the coordinator encodes straight out
// of the shuffle's contiguous per-worker slices and the worker decodes
// straight into exactly-sized pooled buffers. DESIGN.md's "Transport"
// section is the normative frame table.
const (
	// protoVersionSession is the persistent-session protocol: numbered jobs
	// multiplex over the connection until either side closes (session.go).
	protoVersionSession = 3
	// protoVersionPeer opens a worker→worker peer-transfer connection on the
	// same listener: one sender streams stage-1 match contributions to one
	// receiver, identified by 64-bit transfer tokens (peer.go).
	protoVersionPeer = 4

	// Session frames. Every header carries a job number, so one connection
	// interleaves many jobs' frames.
	frameV3OpenJob = 10 // coord→worker gob jobOpen
	frameV3RelHead = 11 // coord→worker [rel u8][flags u8][count u32]
	frameV3Block   = 12 // coord→worker [rel u8][count u32][count×8 LE keys]; rel 3: the re-key column
	frameV3EOS     = 14 // coord→worker job data complete; worker joins
	frameV3Pairs   = 15 // worker→coord [count u32][count×(i1 u32, i2 u32)]
	frameV3Metrics = 16 // worker→coord gob metrics (terminates the job)
	frameV3Abort   = 17 // coord→worker job abandoned; discard its state, no reply

	// PLAN/PEER frames (stage-aware pipelines): a stage-1 job carries a
	// statistics request, each worker re-shuffles its own matches by the
	// stage-2 plan straight to peer workers, and the coordinator only ever
	// sees pair counts.
	frameV3Plan        = 18 // coord→worker gob planSpec: statistics request; this job's matches feed the stage-2 plan
	frameV3OpenPeerJob = 19 // coord→worker gob peerJobOpen: job whose relation 1 arrives from its Senders peers
	frameV3PlanCancel  = 20 // coord→worker gob planCancel: discard buffered peer state for a token

	// STATS/PLAN2 frames: a plan job joins as usual, summarizes its matches,
	// ships the summary to the coordinator and holds its re-shuffle until the
	// coordinator plans stage 2 from the merged summaries and answers with
	// the artifact. Only the summaries — never the intermediate — transit the
	// coordinator.
	frameV3Stats = 21 // worker→coord raw planio-encoded statistics summary
	frameV3Plan2 = 22 // coord→worker gob planSpec: the replanned stage-2 artifact + peer map

	// HELLO frame (multi-tenant sessions): an optional gob sessionHello sent
	// once, immediately after the v3 prelude and before any job, declaring
	// the coordinator's tenant id for worker-side admission control and
	// quota accounting. A session that opens jobs without a hello is the
	// anonymous tenant "" — byte-identical to the pre-multi-tenant protocol,
	// so old coordinators interoperate with new workers and vice versa (a
	// hello's job field is 0 and old workers never receive one).
	frameV3Hello = 23 // coord→worker gob sessionHello

	// CHUNK frames (pipelined relation streaming): instead of waiting for the
	// whole relation's scatter and announcing exact counts up front
	// (frameV3RelHead), the coordinator declares only the mapper count and
	// streams each mapper's routed sub-block the moment routing fills it. Any
	// number of chunk frames may carry one mapper's sub-block (an oversized
	// sub-block splits at the frame cap); the TAIL is the terminator, carrying
	// exact totals the coordinator only knows at the end, and the worker
	// validates its running counts against them.
	frameV3ChunkHead = 25 // coord→worker [rel u8][chunks u32]
	frameV3Chunk     = 26 // coord→worker [rel u8][mapper u16][count u32][count×8 LE keys]
	frameV3ChunkTail = 27 // coord→worker [rel u8][count u32] — the exact total

	// STREAM frames (continuous joins): a long-lived stream job joins an
	// unbounded sequence of tuple windows against a static base relation.
	// The open frame pins the condition; base frames ship the
	// static side routed under the active plan (re-shipped whole on every
	// replan, tagged with a new epoch); window frames append one window's
	// routed shard and its end frame triggers the worker's probe + summary
	// reply. All frames ride the session connection's FIFO, which is the
	// drain/cutover contract: windows sent before a new epoch's base are
	// processed under the old plan, windows after it under the new one.
	// The stream closes via the ordinary frameV3EOS / frameV3Metrics pair.
	frameV3StreamOpen    = 33 // coord→worker gob streamOpen
	frameV3StreamBase    = 34 // coord→worker [epoch u32][count u32][count×8 LE keys]
	frameV3StreamBaseEnd = 35 // coord→worker [epoch u32][total u32]
	frameV3StreamWin     = 36 // coord→worker [window u32][epoch u32][count u32][count×8 LE keys]
	frameV3StreamWinEnd  = 37 // coord→worker [window u32][epoch u32][total u32]
	frameV3StreamRep     = 38 // worker→coord gob streamWinReply

	// Peer-mesh frames (worker→worker connections, protoVersionPeer). Their
	// headers carry no job number; the 64-bit transfer token rides in each
	// payload, so peer transfers are immune to session job-id collisions
	// across coordinators.
	framePeerHead  = 30 // [token u64][sender u32][count u32] — declares one sender's contribution
	framePeerBlock = 31 // [token u64][sender u32][count u32][count×8 LE keys]

	// relFlagRekey on relation 2's head of a plan job declares the re-key
	// column: count more keys, aligned with the relation's, that follow as
	// BLOCK frames tagged relRekey — the stage-2 join key a match
	// materializes as.
	relFlagRekey = 1
	relRekey     = 3

	// blockHeaderLen is [rel u8][count u32].
	blockHeaderLen = 5
	// chunkHeadLen is [rel u8][chunks u32].
	chunkHeadLen = 5
	// chunkHeaderLen is frameV3Chunk's sub-header: [rel u8][mapper u16][count u32].
	chunkHeaderLen = 7
	// chunkTailLen is [rel u8][count u32].
	chunkTailLen = 5
	// streamBaseHdrLen is frameV3StreamBase's sub-header [epoch u32][count u32];
	// frameV3StreamBaseEnd reuses the layout with the exact total in the
	// count slot.
	streamBaseHdrLen = 8
	// streamWinHdrLen is frameV3StreamWin's sub-header
	// [window u32][epoch u32][count u32]; frameV3StreamWinEnd reuses the
	// layout with the exact total in the count slot.
	streamWinHdrLen = 12
	// maxRelationChunks bounds the chunk count a chunk head may declare; it
	// is the mapper count, which no sane coordinator sets anywhere near this.
	maxRelationChunks = 1 << 16
	// relHeadLen is [rel u8][flags u8][count u32].
	relHeadLen = 6
	// maxBlockKeys caps the keys one key-carrying frame holds (128 MiB); a
	// longer run splits into consecutive frames (see writeKeyFrames).
	maxBlockKeys = 1 << 24
	// maxKeySubHdrLen is the longest sub-header a key-carrying frame leads
	// with (framePeerBlock's; BLOCK 5, CHUNK 7, STREAMBASE 8, STREAMWIN 12).
	maxKeySubHdrLen = peerBlockHeaderLen
	// maxDataPayload is the longest payload either frame-header reader
	// accepts: a full key frame under the longest sub-header, so a maximal
	// frame of every key-carrying type passes.
	maxDataPayload = maxKeySubHdrLen + 8*maxBlockKeys
	// maxControlPayload bounds the control frames (gob, and the raw STATS
	// summary), whose payload is buffered whole before it decodes: a reader
	// refuses a longer one connection-fatally BEFORE allocating for it — a bare
	// header on the unauthenticated listener must not cost 128 MiB — and
	// writeV3GobFrame refuses to frame one. Twice the largest a driver can
	// produce, a summary at the planio codec's collection cap (2^21 keys, 16
	// MiB); a plan for the widest mesh stays under 1 MiB.
	maxControlPayload = 32 << 20
	// maxOpenPayload bounds the three open frames (OPENJOB, OPENPEERJOB,
	// STREAMOPEN), refused connection-fatally before gob reads them. The
	// largest real open is under 300 B, so a longer one is malformed and
	// gob never sees a control-sized open.
	maxOpenPayload = 4 << 10

	// peerHeadLen is framePeerHead's payload: [token u64][sender u32][count u32].
	peerHeadLen = 16
	// peerBlockHeaderLen is framePeerBlock's sub-header before the keys.
	peerBlockHeaderLen = 16
	// maxPeerBlockKeys caps one peer block frame (8 MiB of keys); larger
	// contributions split into consecutive frames.
	maxPeerBlockKeys = 1 << 20
	// maxPeerSenders bounds the sender count a stage-2 job open may declare,
	// and the sender ids a peer transfer may name before that open arrives.
	maxPeerSenders = 1 << 12
)

// protoMagic opens every connection.
var protoMagic = [4]byte{'E', 'W', 'H', 'B'}

// scratchPool recycles the chunk buffers the key codec stages through.
var scratchPool = sync.Pool{
	New: func() any { b := make([]byte, 64<<10); return &b },
}

func getScratch() *[]byte  { return scratchPool.Get().(*[]byte) }
func putScratch(b *[]byte) { scratchPool.Put(b) }

func writeFrameHeader(w io.Writer, typ byte, payloadLen int) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(payloadLen))
	_, err := w.Write(hdr[:])
	return err
}

func readFrameHeader(r io.Reader) (typ byte, payloadLen int, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxDataPayload {
		return 0, 0, fmt.Errorf("frame payload %d exceeds limit %d", n, maxDataPayload)
	}
	return hdr[0], int(n), nil
}

// v3FrameHeaderLen is [type u8][job u32][payloadLen u32].
const v3FrameHeaderLen = 9

func writeV3FrameHeader(w io.Writer, typ byte, job uint32, payloadLen int) error {
	var hdr [v3FrameHeaderLen]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], job)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(payloadLen))
	_, err := w.Write(hdr[:])
	return err
}

func readV3FrameHeader(r io.Reader) (typ byte, job uint32, payloadLen int, err error) {
	var hdr [v3FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[5:])
	if n > maxDataPayload {
		return 0, 0, 0, fmt.Errorf("frame payload %d exceeds limit %d", n, maxDataPayload)
	}
	return hdr[0], binary.LittleEndian.Uint32(hdr[1:]), int(n), nil
}

// writeV3GobFrame sends a session frame whose payload is the gob encoding
// of v.
func writeV3GobFrame(w io.Writer, typ byte, job uint32, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	if buf.Len() > maxControlPayload {
		return fmt.Errorf("frame type %d payload %d exceeds control-frame limit %d", typ, buf.Len(), maxControlPayload)
	}
	if err := writeV3FrameHeader(w, typ, job, buf.Len()); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// controlReadAhead is the most readControlPayload allocates ahead of the
// payload bytes that have arrived.
const controlReadAhead = 64 << 10

// readControlPayload buffers a control frame's n payload bytes (already past
// the frame header), refusing over maxControlPayload before it allocates. The
// buffer starts at min(n, controlReadAhead) and doubles only as bytes arrive,
// so a stalled header costs what was sent, not what it declared; a small
// frame still gets one exactly sized buffer.
func readControlPayload(r io.Reader, n int) ([]byte, error) {
	if n > maxControlPayload {
		return nil, fmt.Errorf("control frame payload %d exceeds limit %d", n, maxControlPayload)
	}
	payload := make([]byte, 0, min(n, controlReadAhead))
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = append(make([]byte, 0, len(payload)+min(len(payload), n-len(payload))), payload...)
		}
		m, err := io.ReadFull(r, payload[len(payload):cap(payload)])
		if err != nil {
			return nil, err
		}
		payload = payload[:len(payload)+m]
	}
	return payload, nil
}

// readGobPayload decodes a control frame's n payload bytes into v.
func readGobPayload(r io.Reader, n int, v any) error {
	payload, err := readControlPayload(r, n)
	if err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// writeRelHead announces one flat relation of a session job: its exact tuple
// count and whether a re-key column of as many keys follows — the worker
// allocates its receive buffers from these before any data frame arrives.
func writeRelHead(w io.Writer, job uint32, rel int8, count int, rekey bool) error {
	var h [relHeadLen]byte
	h[0] = byte(rel)
	if rekey {
		h[1] = relFlagRekey
	}
	binary.LittleEndian.PutUint32(h[2:], uint32(count))
	return writeHeadFrame(w, frameV3RelHead, job, h[:])
}

// writeHeadFrame writes one of the fixed-layout frames that open or close a
// run of key frames (the worker's headFrame reads them).
func writeHeadFrame(w io.Writer, typ byte, job uint32, h []byte) error {
	if err := writeV3FrameHeader(w, typ, job, len(h)); err != nil {
		return err
	}
	_, err := w.Write(h)
	return err
}

// writeKeyFrames is the one writer of key-carrying data frames (BLOCK, CHUNK,
// STREAMBASE, STREAMWIN on a session; framePeerBlock, which rides the
// job-less v4 header and ignores job, on the mesh). They share one shape: a
// fixed sub-header whose last four bytes are the frame's key count, then the
// keys fixed-width little-endian. sub arrives with everything but the count
// filled in; keys split at maxBlockKeys into consecutive frames (which append
// in arrival order on the worker) and an empty run writes nothing — the
// relation's head, tail or end frame already says zero. Keys stage through a
// pooled scratch buffer, so the cost per key is one PutUint64.
func writeKeyFrames(w io.Writer, typ byte, job uint32, sub []byte, keys []join.Key) error {
	scratch := getScratch()
	defer putScratch(scratch)
	for len(keys) > 0 {
		n := len(keys)
		if n > maxBlockKeys {
			n = maxBlockKeys
		}
		var err error
		if typ == framePeerBlock {
			err = writeFrameHeader(w, typ, len(sub)+8*n)
		} else {
			err = writeV3FrameHeader(w, typ, job, len(sub)+8*n)
		}
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(sub[len(sub)-4:], uint32(n))
		if _, err := w.Write(sub); err != nil {
			return err
		}
		if err := writeKeysLE(w, keys[:n], *scratch); err != nil {
			return err
		}
		keys = keys[n:]
	}
	return nil
}

// headFrameLen is the payload length of each fixed-layout session frame that
// opens or closes a run of key frames.
var headFrameLen = [...]int{frameV3RelHead: relHeadLen, frameV3ChunkHead: chunkHeadLen,
	frameV3ChunkTail: chunkTailLen, frameV3StreamBaseEnd: streamBaseHdrLen,
	frameV3StreamWinEnd: streamWinHdrLen}

// keySubHdrLen is the sub-header length of each key-carrying frame.
var keySubHdrLen = [...]int{frameV3Block: blockHeaderLen, frameV3Chunk: chunkHeaderLen,
	frameV3StreamBase: streamBaseHdrLen, frameV3StreamWin: streamWinHdrLen,
	framePeerBlock: peerBlockHeaderLen}

// writeKeyBlocksV3 streams one flat relation's contiguous per-worker key slice
// (or, under relRekey, relation 2's re-key column) as BLOCK frames.
func writeKeyBlocksV3(w io.Writer, job uint32, rel int8, keys []join.Key) error {
	var h [blockHeaderLen]byte
	h[0] = byte(rel)
	return writeKeyFrames(w, frameV3Block, job, h[:], keys)
}

// writeChunkKeys frames one mapper's routed sub-block for one worker; the
// mapper id orders the chunks' content digest on the worker.
func writeChunkKeys(w io.Writer, job uint32, rel int8, mapper int, keys []join.Key) error {
	var h [chunkHeaderLen]byte
	h[0] = byte(rel)
	binary.LittleEndian.PutUint16(h[1:], uint16(mapper))
	return writeKeyFrames(w, frameV3Chunk, job, h[:], keys)
}

// writeStreamBaseKeys ships one epoch's base shard for one worker.
func writeStreamBaseKeys(w io.Writer, job, epoch uint32, keys []join.Key) error {
	var h [streamBaseHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:], epoch)
	return writeKeyFrames(w, frameV3StreamBase, job, h[:], keys)
}

// writeStreamWinKeys ships one window's shard for one worker. The epoch names
// the plan the shard was routed under; the worker rejects a window whose
// epoch does not match its sealed base.
func writeStreamWinKeys(w io.Writer, job, window, epoch uint32, keys []join.Key) error {
	var h [streamWinHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:], window)
	binary.LittleEndian.PutUint32(h[4:], epoch)
	return writeKeyFrames(w, frameV3StreamWin, job, h[:], keys)
}

// readKeysLE decodes len(dst) little-endian keys from r into dst, staged
// through a pooled scratch buffer — the inverse of writeKeysLE, shared by
// every key-block decode path (session, peer mesh).
func readKeysLE(r io.Reader, dst []join.Key) error {
	scratch := getScratch()
	defer putScratch(scratch)
	buf := *scratch
	for len(dst) > 0 {
		c := len(buf) / 8
		if c > len(dst) {
			c = len(dst)
		}
		chunk := buf[:8*c]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return err
		}
		for i := range dst[:c] {
			dst[i] = join.Key(binary.LittleEndian.Uint64(chunk[8*i:]))
		}
		dst = dst[c:]
	}
	return nil
}

// writeKeysLE streams keys fixed-width little-endian, staged through buf.
func writeKeysLE(w io.Writer, block []join.Key, buf []byte) error {
	for len(block) > 0 {
		c := len(buf) / 8
		if c > len(block) {
			c = len(block)
		}
		chunk := buf[:8*c]
		for i, k := range block[:c] {
			binary.LittleEndian.PutUint64(chunk[8*i:], uint64(k))
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		block = block[c:]
	}
	return nil
}

// writePairsFrame ships one chunk of matched index pairs back to the
// coordinator, staged through a pooled scratch buffer.
func writePairsFrame(w *bufio.Writer, job uint32, pairs []exec.PairIdx) error {
	if err := writeV3FrameHeader(w, frameV3Pairs, job, 4+8*len(pairs)); err != nil {
		return err
	}
	var ch [4]byte
	binary.LittleEndian.PutUint32(ch[:], uint32(len(pairs)))
	if _, err := w.Write(ch[:]); err != nil {
		return err
	}
	scratch := getScratch()
	defer putScratch(scratch)
	buf := *scratch
	for len(pairs) > 0 {
		c := len(buf) / 8
		if c > len(pairs) {
			c = len(pairs)
		}
		chunk := buf[:8*c]
		for i, p := range pairs[:c] {
			binary.LittleEndian.PutUint32(chunk[8*i:], p.I1)
			binary.LittleEndian.PutUint32(chunk[8*i+4:], p.I2)
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		pairs = pairs[c:]
	}
	return nil
}

// writeChunkHead declares a chunked relation routed by `chunks` mappers;
// chunk frames follow in any interleaving (empty sub-blocks are skipped),
// then a tail with the exact total terminates the relation.
func writeChunkHead(w io.Writer, job uint32, rel int8, chunks int) error {
	var h [chunkHeadLen]byte
	h[0] = byte(rel)
	binary.LittleEndian.PutUint32(h[1:], uint32(chunks))
	return writeHeadFrame(w, frameV3ChunkHead, job, h[:])
}

// writeChunkTail closes a chunked relation with its exact total; the worker
// cross-checks it against the running count the chunks accumulated.
func writeChunkTail(w io.Writer, job uint32, rel int8, count int) error {
	var h [chunkTailLen]byte
	h[0] = byte(rel)
	binary.LittleEndian.PutUint32(h[1:], uint32(count))
	return writeHeadFrame(w, frameV3ChunkTail, job, h[:])
}

// writeStreamBaseEnd seals one epoch's base with its exact total; the worker
// cross-checks it and (re)builds its join-side structure.
func writeStreamBaseEnd(w io.Writer, job, epoch uint32, total int) error {
	var h [streamBaseHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:], epoch)
	binary.LittleEndian.PutUint32(h[4:], uint32(total))
	return writeHeadFrame(w, frameV3StreamBaseEnd, job, h[:])
}

// writeStreamWinEnd closes one window's shard with its exact total; the
// worker cross-checks, probes the window against the sealed base, and
// replies with a frameV3StreamRep.
func writeStreamWinEnd(w io.Writer, job, window, epoch uint32, total int) error {
	var h [streamWinHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:], window)
	binary.LittleEndian.PutUint32(h[4:], epoch)
	binary.LittleEndian.PutUint32(h[8:], uint32(total))
	return writeHeadFrame(w, frameV3StreamWinEnd, job, h[:])
}

// pairsBufPool recycles the coordinator's pairs receive chunks: the
// Job.Pairs contract says a chunk is only valid for the duration of the
// call, so the read loop returns each buffer right after delivery.
var pairsBufPool = sync.Pool{} // stores *[]exec.PairIdx

func getPairsBuf(n int) []exec.PairIdx {
	if v := pairsBufPool.Get(); v != nil {
		b := *v.(*[]exec.PairIdx)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]exec.PairIdx, n)
}

func putPairsBuf(b []exec.PairIdx) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	pairsBufPool.Put(&b)
}

// readPairsPayload decodes one pairs frame's payload (already past the
// frame header; n bytes follow) into a pooled chunk; the caller returns it
// with putPairsBuf once delivered.
func readPairsPayload(r io.Reader, n int) ([]exec.PairIdx, error) {
	var ch [4]byte
	if _, err := io.ReadFull(r, ch[:]); err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint32(ch[:]))
	if n != 4+8*count {
		return nil, fmt.Errorf("pairs frame length %d inconsistent with count %d", n, count)
	}
	out := getPairsBuf(count)
	scratch := getScratch()
	defer putScratch(scratch)
	buf := *scratch
	for pos := 0; pos < count; {
		c := len(buf) / 8
		if c > count-pos {
			c = count - pos
		}
		chunk := buf[:8*c]
		if _, err := io.ReadFull(r, chunk); err != nil {
			putPairsBuf(out)
			return nil, err
		}
		for i := 0; i < c; i++ {
			out[pos+i] = exec.PairIdx{
				I1: binary.LittleEndian.Uint32(chunk[8*i:]),
				I2: binary.LittleEndian.Uint32(chunk[8*i+4:]),
			}
		}
		pos += c
	}
	return out, nil
}
