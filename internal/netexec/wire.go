package netexec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ewh/internal/bufpool"
	"ewh/internal/exec"
	"ewh/internal/join"
)

// Wire framing ("EWHB"). All integers are little-endian. Every connection
// opens with the prelude
//
//	magic "EWHB" | uint16 version | uint8 tenant length | tenant
//
// where version 8 is a coordinator session and 6 a worker→worker peer-mesh
// link, whose tenant is always "". Both frame everything after it as
//
//	[type u8][job u32][payloadLen u32][payload]
//
// with job 0 on the mesh, whose reader ignores it.
//
// Every payload is fixed-layout little-endian binary. Control frames (open,
// plan, cancel, reply — a few per job) are records (control.go); data
// frames (key runs, pairs) are fixed-width arrays, so the coordinator
// encodes straight out of the shuffle's contiguous per-worker slices and the
// worker decodes straight into exactly-sized pooled buffers. DESIGN.md's
// "Transport" section is the normative frame table.
const (
	// protoVersionSession is the persistent-session protocol: numbered jobs
	// multiplex over the connection until either side closes (session.go).
	// Version 7 carried its control frames as gob, in three opens, a PLAN and
	// two replies; a worker closes it at the prelude. Version 6 declared its
	// tenant in a HELLO frame; a worker reads its prelude as the mesh's and
	// closes it at the tenant, which its first frame's type byte makes
	// non-empty.
	protoVersionSession = 8
	// protoVersionPeer opens a worker→worker peer-transfer connection on the
	// same listener: one sender streams stage-1 match contributions to one
	// receiver, identified by 64-bit transfer tokens (peer.go). Version 5 was
	// the mesh with a tenant-less prelude; a worker closes it at the prelude.
	protoVersionPeer = 6

	// Session frames. Every header carries a job number, so one connection
	// interleaves many jobs' frames.
	frameV3Open  = 10 // coord→worker open record: the job's kind, condition and what the kind needs
	frameV3EOS   = 14 // coord→worker job data complete; worker joins
	frameV3Pairs = 15 // worker→coord [count u32][count×(i1 u32, i2 u32)]
	frameV3Reply = 16 // worker→coord reply record: final (ends the sub-job) or interim
	frameV3Abort = 17 // coord→worker job abandoned; discard its state, no reply

	// Stage-aware pipelines: a plan job's open carries a statistics request;
	// the job joins, summarizes its matches, replies the summary and holds its
	// re-shuffle until the coordinator plans stage 2 from the merged summaries
	// and answers with PLAN2. Each worker then re-shuffles its own matches by
	// the stage-2 plan straight to peer workers: only the summaries and pair
	// counts — never the intermediate — transit the coordinator.
	frameV3PlanCancel = 20 // coord→worker [token u64]: discard buffered peer state for a token
	frameV3Plan2      = 22 // coord→worker plan2 record: the replanned stage-2 artifact + peer map

	// Run frames. A stream job joins an unbounded sequence of tuple windows
	// against a static base relation: base frames ship the static side
	// routed under the active plan (re-shipped whole on every replan, tagged
	// with a new epoch); window frames append one window's routed shard and
	// its end frame triggers the worker's probe + summary reply. All frames
	// ride the session connection's FIFO, which is the drain/cutover
	// contract: windows sent before a new epoch's base are processed under
	// the old plan, windows after it under the new one.
	//
	// Every other job rides the same frames at epoch 0: relation 1 as the
	// base run (a peer-fed job's base is its relation 2) and relation 2 as
	// window 0; a plan job's re-key column follows as window 1. A count job's
	// routed sub-blocks go out the moment routing fills them, so its end
	// frames carry totals the coordinator only knows once every mapper has
	// emitted; a pairs or plan job's relations ship whole.
	frameV3StreamBase    = 34 // coord→worker [epoch u32][count u32][count×8 LE keys]
	frameV3StreamBaseEnd = 35 // coord→worker [epoch u32][total u32]
	frameV3StreamWin     = 36 // coord→worker [window u32][epoch u32][count u32][count×8 LE keys]
	frameV3StreamWinEnd  = 37 // coord→worker [window u32][epoch u32][total u32]

	// Peer-mesh frames (worker→worker connections, protoVersionPeer). Their
	// job number is 0; the 64-bit transfer token rides in each payload, so
	// peer transfers are immune to session job-id collisions across
	// coordinators.
	framePeerHead  = 30 // [token u64][sender u32][count u32] — declares one sender's contribution
	framePeerBlock = 31 // [token u64][sender u32][count u32][count×8 LE keys]

	// streamBaseHdrLen is frameV3StreamBase's sub-header [epoch u32][count u32];
	// frameV3StreamBaseEnd reuses the layout with the exact total in the
	// count slot.
	streamBaseHdrLen = 8
	// streamWinHdrLen is frameV3StreamWin's sub-header
	// [window u32][epoch u32][count u32]; frameV3StreamWinEnd reuses the
	// layout with the exact total in the count slot.
	streamWinHdrLen = 12
	// maxBlockKeys caps the keys one key-carrying frame holds (128 MiB); a
	// longer run splits into consecutive frames (see writeKeyFrames).
	maxBlockKeys = 1 << 24
	// maxKeySubHdrLen is the longest sub-header a key-carrying frame leads
	// with (framePeerBlock's; STREAMBASE 8, STREAMWIN 12).
	maxKeySubHdrLen = peerBlockHeaderLen
	// maxDataPayload is the longest payload the frame-header reader
	// accepts: a full key frame under the longest sub-header, so a maximal
	// frame of every key-carrying type passes.
	maxDataPayload = maxKeySubHdrLen + 8*maxBlockKeys
	// maxControlPayload bounds the control frames, whose payload is
	// buffered whole before it decodes: a reader refuses a longer one
	// connection-fatally BEFORE allocating for it — a bare header on the
	// unauthenticated listener must not cost 128 MiB — and writeCtl refuses
	// to frame one. Twice the largest a driver can produce, a summary
	// at the planio codec's collection cap (2^21 keys, 16 MiB); a plan for the
	// widest mesh stays under 1 MiB.
	maxControlPayload = 32 << 20
	// maxOpenPayload bounds OPEN and PLANCANCEL, refused connection-fatally
	// unread. A real one is under 64 B, so a longer one is malformed.
	maxOpenPayload = 4 << 10

	// peerHeadLen is framePeerHead's payload: [token u64][sender u32][count u32].
	peerHeadLen = 16
	// peerBlockHeaderLen is framePeerBlock's sub-header before the keys.
	peerBlockHeaderLen = 16
	// maxPeerSenders bounds the sender count a stage-2 job open may declare,
	// and the sender ids a peer transfer may name before that open arrives.
	maxPeerSenders = 1 << 12
)

// protoMagic opens every connection.
var protoMagic = [4]byte{'E', 'W', 'H', 'B'}

// prelude is what every connection opens with: the magic, the version, and
// the tenant its jobs are charged to behind a u8 length (at most
// maxTenantLen bytes; "" is the anonymous tenant and the mesh's).
func prelude(version uint16, tenant string) []byte {
	b := binary.LittleEndian.AppendUint16(append([]byte(nil), protoMagic[:]...), version)
	return append(append(b, byte(len(tenant))), tenant...)
}

// codecScratch recycles the chunk buffers the key and pair codecs stage
// through, each scratchLen bytes.
var codecScratch bufpool.Pool[byte]

const scratchLen = 64 << 10

// v3FrameHeaderLen is [type u8][job u32][payloadLen u32], the frame header of
// both protocol versions.
const v3FrameHeaderLen = 9

func writeV3FrameHeader(w io.Writer, typ byte, job uint32, payloadLen int) error {
	var hdr [v3FrameHeaderLen]byte
	putFrameHeader(hdr[:], typ, job, payloadLen)
	_, err := w.Write(hdr[:])
	return err
}

func putFrameHeader(h []byte, typ byte, job uint32, payloadLen int) {
	h[0] = typ
	binary.LittleEndian.PutUint32(h[1:], job)
	binary.LittleEndian.PutUint32(h[5:], uint32(payloadLen))
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

// writeEndFrame writes one of the fixed-layout frames that close a run of key
// frames (the worker's endFrame reads them).
func writeEndFrame(w io.Writer, typ byte, job uint32, h []byte) error {
	if err := writeV3FrameHeader(w, typ, job, len(h)); err != nil {
		return err
	}
	_, err := w.Write(h)
	return err
}

// writeKeyFrames is the one writer of key-carrying data frames (STREAMBASE,
// STREAMWIN on a session; framePeerBlock, at job 0, on the mesh). They share
// one shape: a fixed sub-header whose last four bytes are the frame's key
// count, then the keys fixed-width little-endian. sub arrives with everything
// but the count filled in; keys split at maxBlockKeys into consecutive frames
// (which append in arrival order on the worker) and an empty run writes
// nothing — the run's end frame already says zero. Keys stage through a
// pooled scratch buffer, so the cost per key is one PutUint64.
func writeKeyFrames(w io.Writer, typ byte, job uint32, sub []byte, keys []join.Key) error {
	scratch := codecScratch.Get(scratchLen)
	defer codecScratch.Put(scratch)
	for len(keys) > 0 {
		n := len(keys)
		if n > maxBlockKeys {
			n = maxBlockKeys
		}
		if err := writeV3FrameHeader(w, typ, job, len(sub)+8*n); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(sub[len(sub)-4:], uint32(n))
		if _, err := w.Write(sub); err != nil {
			return err
		}
		if err := writeKeysLE(w, keys[:n], scratch); err != nil {
			return err
		}
		keys = keys[n:]
	}
	return nil
}

// endFrameLen is the payload length of each fixed-layout session frame that
// closes a run of key frames.
var endFrameLen = [...]int{frameV3StreamBaseEnd: streamBaseHdrLen, frameV3StreamWinEnd: streamWinHdrLen}

// keySubHdrLen is the sub-header length of each key-carrying frame.
var keySubHdrLen = [...]int{frameV3StreamBase: streamBaseHdrLen,
	frameV3StreamWin: streamWinHdrLen, framePeerBlock: peerBlockHeaderLen}

// writeRun ships keys whole as one run — the base of epoch, or window win of
// it — and ends it with the exact total.
func writeRun(w io.Writer, job uint32, base bool, win, epoch uint32, keys []join.Key) error {
	if base {
		if err := writeStreamBaseKeys(w, job, epoch, keys); err != nil {
			return err
		}
		return writeStreamBaseEnd(w, job, epoch, len(keys))
	}
	if err := writeStreamWinKeys(w, job, win, epoch, keys); err != nil {
		return err
	}
	return writeStreamWinEnd(w, job, win, epoch, len(keys))
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
	buf := codecScratch.Get(scratchLen)
	defer codecScratch.Put(buf)
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
	buf := codecScratch.Get(scratchLen)
	defer codecScratch.Put(buf)
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

// writeStreamBaseEnd seals one epoch's base with its exact total; the worker
// cross-checks it and (re)builds its join-side structure.
func writeStreamBaseEnd(w io.Writer, job, epoch uint32, total int) error {
	var h [streamBaseHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:], epoch)
	binary.LittleEndian.PutUint32(h[4:], uint32(total))
	return writeEndFrame(w, frameV3StreamBaseEnd, job, h[:])
}

// writeStreamWinEnd closes one window's shard with its exact total; the
// worker cross-checks, probes the window against the sealed base, and
// replies with an interim REPLY.
func writeStreamWinEnd(w io.Writer, job, window, epoch uint32, total int) error {
	var h [streamWinHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:], window)
	binary.LittleEndian.PutUint32(h[4:], epoch)
	binary.LittleEndian.PutUint32(h[8:], uint32(total))
	return writeEndFrame(w, frameV3StreamWinEnd, job, h[:])
}

// readPairsPayload decodes one pairs frame's payload (already past the
// frame header; n bytes follow) into a chunk from exec.PairBufs; the caller
// returns it there once delivered (the Job.Pairs contract says a chunk is only
// valid for the duration of the call).
func readPairsPayload(r io.Reader, n int) ([]exec.PairIdx, error) {
	var ch [4]byte
	if _, err := io.ReadFull(r, ch[:]); err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint32(ch[:]))
	if n != 4+8*count {
		return nil, fmt.Errorf("pairs frame length %d inconsistent with count %d", n, count)
	}
	out := exec.PairBufs.Get(count)
	buf := codecScratch.Get(scratchLen)
	defer codecScratch.Put(buf)
	for pos := 0; pos < count; {
		c := len(buf) / 8
		if c > count-pos {
			c = count - pos
		}
		chunk := buf[:8*c]
		if _, err := io.ReadFull(r, chunk); err != nil {
			exec.PairBufs.Put(out)
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
