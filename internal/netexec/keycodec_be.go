//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package netexec

import (
	"encoding/binary"
	"io"

	"ewh/internal/bufpool"
	"ewh/internal/exec"
	"ewh/internal/join"
)

// The data frames' codec on a big-endian host, whose memory order is not
// the wire's: every key and pair is converted through a pooled scratch
// buffer. keycodec_le.go is the same codec for a little-endian host.

// codecScratch recycles the chunk buffers the codec stages through, each
// scratchLen bytes.
var codecScratch bufpool.Pool[byte]

const scratchLen = 64 << 10

// writeKeysLE writes keys fixed-width little-endian.
func writeKeysLE(w io.Writer, keys []join.Key) error {
	buf := codecScratch.Get(scratchLen)
	defer codecScratch.Put(buf)
	for len(keys) > 0 {
		c := min(len(buf)/8, len(keys))
		chunk := buf[:8*c]
		for i, k := range keys[:c] {
			binary.LittleEndian.PutUint64(chunk[8*i:], uint64(k))
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		keys = keys[c:]
	}
	return nil
}

// readKeysLE decodes len(dst) little-endian keys from r into dst — the
// inverse of writeKeysLE.
func readKeysLE(r io.Reader, dst []join.Key) error {
	buf := codecScratch.Get(scratchLen)
	defer codecScratch.Put(buf)
	for len(dst) > 0 {
		c := min(len(buf)/8, len(dst))
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

// writePairsLE writes pairs as (i1 u32, i2 u32) little-endian.
func writePairsLE(w io.Writer, pairs []exec.PairIdx) error {
	buf := codecScratch.Get(scratchLen)
	defer codecScratch.Put(buf)
	for len(pairs) > 0 {
		c := min(len(buf)/8, len(pairs))
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

// readPairsLE decodes len(dst) pairs from r into dst — the inverse of
// writePairsLE.
func readPairsLE(r io.Reader, dst []exec.PairIdx) error {
	buf := codecScratch.Get(scratchLen)
	defer codecScratch.Put(buf)
	for len(dst) > 0 {
		c := min(len(buf)/8, len(dst))
		chunk := buf[:8*c]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return err
		}
		for i := range dst[:c] {
			dst[i] = exec.PairIdx{
				I1: binary.LittleEndian.Uint32(chunk[8*i:]),
				I2: binary.LittleEndian.Uint32(chunk[8*i+4:]),
			}
		}
		dst = dst[c:]
	}
	return nil
}
