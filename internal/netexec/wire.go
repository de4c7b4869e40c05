package netexec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/wire"
)

// Payload layouts; internal/wire owns the framing. Every payload is
// fixed-layout little-endian binary. Control frames (open, plan, reply — a few
// per job) are records (control.go); data frames (key runs, pairs) are
// fixed-width arrays, so the coordinator encodes straight out of the shuffle's
// contiguous per-worker slices and the worker decodes straight into
// exactly-sized pooled buffers.
//
// A stream's base frames ship the static side routed under the active plan
// (re-shipped whole on every replan, tagged with a new epoch); window frames
// append one window's routed shard, and its end frame triggers the worker's
// probe + summary reply. All frames ride the session connection's FIFO, which
// is the drain/cutover contract: windows sent before a new epoch's base are
// processed under the old plan, windows after it under the new one. Every
// other job rides the same frames at epoch 0, each relation a run as its
// kind's row of kinds says; a count job's sub-blocks go out as routing fills
// them, so its end frames carry totals known once every mapper has emitted.
const (
	// streamBaseHdrLen is STREAMBASE's sub-header [epoch u32][count u32],
	// which its count×8 keys follow; STREAMBASEEND reuses the layout with the
	// exact total in the count slot.
	streamBaseHdrLen = 8
	// streamWinHdrLen is STREAMWIN's sub-header [window u32][epoch u32][count
	// u32], which its count×8 keys follow; STREAMWINEND reuses the layout with
	// the exact total in the count slot.
	streamWinHdrLen = 12
	// maxBlockKeys caps the keys one key-carrying frame holds (128 MiB); a
	// longer run splits into consecutive frames (see writeKeyFrames).
	maxBlockKeys = 1 << 24
	// maxKeySubHdrLen is the longest sub-header a key-carrying frame leads
	// with (STREAMWIN's; STREAMBASE 8).
	maxKeySubHdrLen = streamWinHdrLen
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
	// widest fleet stays under 1 MiB.
	maxControlPayload = 32 << 20
	// maxOpenPayload bounds OPEN, refused connection-fatally unread. A real
	// one is under 64 B, so a longer one is malformed.
	maxOpenPayload = 4 << 10

	// maxPeerSenders bounds the sender count a stage-2 job open may declare,
	// and the sender id a plan or contribution open may name.
	maxPeerSenders = 1 << 12
)

func writeFrameHeader(w io.Writer, typ byte, job uint32, payloadLen int) error {
	var hdr [wire.HeaderLen]byte
	wire.PutHeader(hdr[:], typ, job, payloadLen)
	_, err := w.Write(hdr[:])
	return err
}

// readFrameHeader reads one frame header and refuses a payload longer than
// maxDataPayload.
func readFrameHeader(r io.Reader) (typ byte, job uint32, payloadLen int, err error) {
	var hdr [wire.HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, err
	}
	typ, job, n := wire.Header(hdr[:])
	if n > maxDataPayload {
		return 0, 0, 0, fmt.Errorf("frame payload %d exceeds limit %d", n, maxDataPayload)
	}
	return typ, job, int(n), nil
}

// writeEndFrame writes one of the fixed-layout frames that close a run of key
// frames (the worker's endFrame reads them).
func writeEndFrame(w io.Writer, typ byte, job uint32, h []byte) error {
	if err := writeFrameHeader(w, typ, job, len(h)); err != nil {
		return err
	}
	_, err := w.Write(h)
	return err
}

// writeKeyFrames is the one writer of key-carrying data frames (STREAMBASE,
// STREAMWIN). They share
// one shape: a fixed sub-header whose last four bytes are the frame's key
// count, then the keys fixed-width little-endian. sub arrives with everything
// but the count filled in; keys split at maxBlockKeys into consecutive frames
// (which append in arrival order on the worker) and an empty run writes
// nothing — the run's end frame already says zero. writeKeysLE writes the
// keys (keycodec_le.go: on a little-endian host, the block's own bytes).
func writeKeyFrames(w io.Writer, typ byte, job uint32, sub []byte, keys []join.Key) error {
	for len(keys) > 0 {
		n := len(keys)
		if n > maxBlockKeys {
			n = maxBlockKeys
		}
		if err := writeFrameHeader(w, typ, job, len(sub)+8*n); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(sub[len(sub)-4:], uint32(n))
		if _, err := w.Write(sub); err != nil {
			return err
		}
		if err := writeKeysLE(w, keys[:n]); err != nil {
			return err
		}
		keys = keys[n:]
	}
	return nil
}

// endFrameLen is the payload length of each fixed-layout session frame that
// closes a run of key frames.
var endFrameLen = [...]int{wire.StreamBaseEnd: streamBaseHdrLen, wire.StreamWinEnd: streamWinHdrLen}

// keySubHdrLen is the sub-header length of each key-carrying frame.
var keySubHdrLen = [...]int{wire.StreamBase: streamBaseHdrLen, wire.StreamWin: streamWinHdrLen}

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
	return writeKeyFrames(w, wire.StreamBase, job, h[:], keys)
}

// writeStreamWinKeys ships one window's shard for one worker. The epoch names
// the plan the shard was routed under; the worker rejects a window whose
// epoch does not match its sealed base.
func writeStreamWinKeys(w io.Writer, job, window, epoch uint32, keys []join.Key) error {
	var h [streamWinHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:], window)
	binary.LittleEndian.PutUint32(h[4:], epoch)
	return writeKeyFrames(w, wire.StreamWin, job, h[:], keys)
}

// writePairsFrame ships one chunk of matched index pairs back to the
// coordinator: [count u32][count×(i1 u32, i2 u32)].
func writePairsFrame(w *bufio.Writer, job uint32, pairs []exec.PairIdx) error {
	if err := writeFrameHeader(w, wire.Pairs, job, 4+8*len(pairs)); err != nil {
		return err
	}
	var ch [4]byte
	binary.LittleEndian.PutUint32(ch[:], uint32(len(pairs)))
	if _, err := w.Write(ch[:]); err != nil {
		return err
	}
	return writePairsLE(w, pairs)
}

// writeStreamBaseEnd seals one epoch's base with its exact total; the worker
// cross-checks it and (re)builds its join-side structure.
func writeStreamBaseEnd(w io.Writer, job, epoch uint32, total int) error {
	var h [streamBaseHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:], epoch)
	binary.LittleEndian.PutUint32(h[4:], uint32(total))
	return writeEndFrame(w, wire.StreamBaseEnd, job, h[:])
}

// writeStreamWinEnd closes one window's shard with its exact total; the
// worker cross-checks, probes the window against the sealed base, and
// replies with an interim REPLY.
func writeStreamWinEnd(w io.Writer, job, window, epoch uint32, total int) error {
	var h [streamWinHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:], window)
	binary.LittleEndian.PutUint32(h[4:], epoch)
	binary.LittleEndian.PutUint32(h[8:], uint32(total))
	return writeEndFrame(w, wire.StreamWinEnd, job, h[:])
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
	if err := readPairsLE(r, out); err != nil {
		exec.PairBufs.Put(out)
		return nil, err
	}
	return out, nil
}
