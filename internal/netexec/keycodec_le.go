//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package netexec

import (
	"io"
	"unsafe"

	"ewh/internal/exec"
	"ewh/internal/join"
)

// The data frames' codec on a little-endian host, where a key (int64) or an
// index pair (two uint32) lies in memory exactly as the wire carries it
// (wire.go): a block is written as its own bytes and read straight into its
// destination's, with no staging copy. A big-endian host stages every block
// (keycodec_staged.go).

// wireBytes is the memory of block as bytes — its wire form on this host.
// The result aliases block.
func wireBytes[T join.Key | exec.PairIdx](block []T) []byte {
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(block))), len(block)*int(unsafe.Sizeof(t)))
}

// writeKeysLE writes keys fixed-width little-endian.
func writeKeysLE(w io.Writer, keys []join.Key) error {
	_, err := w.Write(wireBytes(keys))
	return err
}

// readKeysLE decodes len(dst) little-endian keys from r into dst — the
// inverse of writeKeysLE.
func readKeysLE(r io.Reader, dst []join.Key) error {
	_, err := io.ReadFull(r, wireBytes(dst))
	return err
}

// writePairsLE writes pairs as (i1 u32, i2 u32) little-endian.
func writePairsLE(w io.Writer, pairs []exec.PairIdx) error {
	_, err := w.Write(wireBytes(pairs))
	return err
}

// readPairsLE decodes len(dst) pairs from r into dst — the inverse of
// writePairsLE.
func readPairsLE(r io.Reader, dst []exec.PairIdx) error {
	_, err := io.ReadFull(r, wireBytes(dst))
	return err
}
