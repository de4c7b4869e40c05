// Package wire is the session framing every netexec connection speaks, stated
// once: the magic, the version, the frame types, and the one encoder and
// decoder of the prelude and of the frame header. It imports nothing from the
// module, so netexec and the fault tap that parses its traffic (faultnet) read
// the same constants; what a payload holds is netexec's. All integers are
// little-endian. Every connection opens with the prelude
//
//	Magic | u16 version | u8 tenant length | tenant
//
// and a session (version Version) frames everything after it as
//
//	[type u8][job u32][payloadLen u32][payload]
//
// DESIGN.md's "Transport" section is the normative statement.
package wire

import "encoding/binary"

// Version is the one session protocol a worker speaks, to a coordinator or to
// a stage-1 peer shipping its contribution; it closes any other at the
// prelude. Its OPEN carries a summary's seed and no size.
const Version = 11

// Magic opens every connection.
var Magic = [4]byte{'E', 'W', 'H', 'B'}

// Frame types. Every header carries a job number, so one connection
// interleaves many jobs' frames.
const (
	Open  byte = 10 // coord→worker open record: the job's kind, condition and what the kind needs
	EOS   byte = 14 // coord→worker job data complete; worker joins
	Pairs byte = 15 // worker→coord matched index pairs
	Reply byte = 16 // worker→coord reply record: final (ends the sub-job) or interim
	Abort byte = 17 // coord→worker job abandoned, before or past its EOS; discard its state, no reply
	Plan2 byte = 22 // coord→worker stage-2 plan and peer map, answering a plan job's summary

	// Run frames: a stream's base and windows, and every other job's
	// relations at epoch 0. Key frames append to a run; its end frame
	// carries the run's exact total.
	StreamBase    byte = 34
	StreamBaseEnd byte = 35
	StreamWin     byte = 36
	StreamWinEnd  byte = 37
)

const (
	// PreludeLen is the prelude up to the tenant length: Magic and version.
	PreludeLen = len(Magic) + 2
	// HeaderLen is a frame header: [type u8][job u32][payloadLen u32].
	HeaderLen = 9
)

// Prelude is what a connection opens with: Magic, version and the tenant its
// jobs are charged to behind a u8 length ("" is the anonymous tenant).
func Prelude(version uint16, tenant string) []byte {
	b := binary.LittleEndian.AppendUint16(append([]byte(nil), Magic[:]...), version)
	return append(append(b, byte(len(tenant))), tenant...)
}

// IsSession reports whether head, a prelude's first PreludeLen bytes, opens
// a session: Magic, then Version.
func IsSession(head []byte) bool {
	return [4]byte(head) == Magic && binary.LittleEndian.Uint16(head[len(Magic):]) == Version
}

// PutHeader writes a frame header into h[:HeaderLen].
func PutHeader(h []byte, typ byte, job uint32, payloadLen int) {
	h[0] = typ
	binary.LittleEndian.PutUint32(h[1:], job)
	binary.LittleEndian.PutUint32(h[5:], uint32(payloadLen))
}

// Header decodes the frame header in h[:HeaderLen].
func Header(h []byte) (typ byte, job uint32, payloadLen uint32) {
	return h[0], binary.LittleEndian.Uint32(h[1:]), binary.LittleEndian.Uint32(h[5:])
}
