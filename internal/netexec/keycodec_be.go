//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package netexec

import (
	"io"

	"ewh/internal/exec"
	"ewh/internal/join"
)

// A big-endian host's memory order is not the wire's, so its data frames
// take the staged codec; keycodec_le.go is a little-endian host's.

func writeKeysLE(w io.Writer, keys []join.Key) error       { return writeKeysStaged(w, keys) }
func readKeysLE(r io.Reader, dst []join.Key) error         { return readKeysStaged(r, dst) }
func writePairsLE(w io.Writer, pairs []exec.PairIdx) error { return writePairsStaged(w, pairs) }
func readPairsLE(r io.Reader, dst []exec.PairIdx) error    { return readPairsStaged(r, dst) }
