package netexec

import (
	"io"

	"ewh/internal/bufpool"
	"ewh/internal/exec"
	"ewh/internal/join"
)

// The data frames' staged codec: every key and pair is converted to or from
// its 8 wire bytes through a pooled scratch buffer, whatever the host's byte
// order. keycodec_be.go runs it on a big-endian host, whose memory order is
// not the wire's; it builds on every host, so TestStagedCodecMatchesWire
// holds it to the little-endian codec.

// codecScratch recycles the chunk buffers the codec stages through, each
// scratchLen bytes.
var codecScratch bufpool.Pool[byte]

const scratchLen = 64 << 10

// writeStaged writes block, put turning each element into its wire bytes.
func writeStaged[T join.Key | exec.PairIdx](w io.Writer, block []T, put func(b []byte, v T)) error {
	buf := codecScratch.Get(scratchLen)
	defer codecScratch.Put(buf)
	for len(block) > 0 {
		c := min(len(buf)/8, len(block))
		chunk := buf[:8*c]
		for i, v := range block[:c] {
			put(chunk[8*i:], v)
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		block = block[c:]
	}
	return nil
}

// readStaged decodes len(dst) elements from r into dst, get reading each
// from its wire bytes — the inverse of writeStaged.
func readStaged[T join.Key | exec.PairIdx](r io.Reader, dst []T, get func(b []byte) T) error {
	buf := codecScratch.Get(scratchLen)
	defer codecScratch.Put(buf)
	for len(dst) > 0 {
		c := min(len(buf)/8, len(dst))
		chunk := buf[:8*c]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return err
		}
		for i := range dst[:c] {
			dst[i] = get(chunk[8*i:])
		}
		dst = dst[c:]
	}
	return nil
}

// writeKeysStaged writes keys fixed-width little-endian.
func writeKeysStaged(w io.Writer, keys []join.Key) error {
	return writeStaged(w, keys, func(b []byte, k join.Key) { le.PutUint64(b, uint64(k)) })
}

// readKeysStaged decodes len(dst) little-endian keys from r into dst.
func readKeysStaged(r io.Reader, dst []join.Key) error {
	return readStaged(r, dst, func(b []byte) join.Key { return join.Key(le.Uint64(b)) })
}

// writePairsStaged writes pairs as (i1 u32, i2 u32) little-endian.
func writePairsStaged(w io.Writer, pairs []exec.PairIdx) error {
	return writeStaged(w, pairs, func(b []byte, p exec.PairIdx) {
		le.PutUint32(b, p.I1)
		le.PutUint32(b[4:], p.I2)
	})
}

// readPairsStaged decodes len(dst) pairs from r into dst.
func readPairsStaged(r io.Reader, dst []exec.PairIdx) error {
	return readStaged(r, dst, func(b []byte) exec.PairIdx { return exec.PairIdx{I1: le.Uint32(b), I2: le.Uint32(b[4:])} })
}
