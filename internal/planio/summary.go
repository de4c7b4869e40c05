package planio

import (
	"encoding/binary"
	"fmt"

	"ewh/internal/join"
	"ewh/internal/stats"
)

// Summary codec: the canonical binary encoding of a distributed statistics
// summary (stats.Summary). Workers encode their local intermediate-key
// summaries with it and ship them to the coordinator in the session
// protocol's window replies; the coordinator decodes, merges (in worker order)
// and plans. Like the plan artifact codec, the encoding is CANONICAL —
// Encode(Decode(Encode(s))) == Encode(s) byte for byte, and the merge is
// commutative at the encoding level (MergeSummaries(a,b) and
// MergeSummaries(b,a) encode identically) — both enforced by
// FuzzStatsSummaryRoundTrip.
//
// Wire format (all integers little-endian):
//
//	magic "EWHS" | u16 version | u64 count | u32 cap |
//	u32 nkeys  | nkeys  × u64 key   (sorted ascending, duplicates allowed)
//	u32 nbounds| nbounds × u64 key  (strictly increasing; 0 iff count == 0)
const summaryVersion = 1

var summaryMagic = [4]byte{'E', 'W', 'H', 'S'}

// EncodeSummary serializes a statistics summary in canonical form. It fails
// for summaries that violate the canonical invariants (Summary.Validate) or
// exceed the codec's collection cap.
func EncodeSummary(s *stats.Summary) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Cap > maxCount {
		return nil, fmt.Errorf("planio: summary capacity %d exceeds codec limit %d", s.Cap, maxCount)
	}
	if len(s.Bounds) > maxCount {
		return nil, fmt.Errorf("planio: %d summary boundaries exceed codec limit %d", len(s.Bounds), maxCount)
	}
	buf := make([]byte, 0, 26+8*(len(s.Keys)+len(s.Bounds)))
	buf = append(buf, summaryMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, summaryVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Count))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Cap))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Keys)))
	for _, k := range s.Keys {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Bounds)))
	for _, k := range s.Bounds {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	}
	return buf, nil
}

// DecodeSummary reconstructs a summary from EncodeSummary's output,
// validating every canonical invariant so anything it accepts re-encodes
// byte-exactly.
func DecodeSummary(data []byte) (*stats.Summary, error) {
	d := NewCursor(data)
	if magic := d.Bytes(len(summaryMagic)); d.err == nil && string(magic) != string(summaryMagic[:]) {
		return nil, fmt.Errorf("planio: bad summary magic %q", magic)
	}
	if version := d.U16(); d.err == nil && version != summaryVersion {
		return nil, fmt.Errorf("planio: summary version %d unsupported (want %d)", version, summaryVersion)
	}
	s := &stats.Summary{Count: int64(d.U64()), Cap: d.Count("summary capacity", maxCount, 0)}
	s.Keys = readKeys(d, "summary key")
	s.Bounds = readKeys(d, "summary boundary")
	if err := d.Done("summary"); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// readKeys reads a u32 count and that many u64 keys; nil for none.
func readKeys(d *Cursor, what string) []join.Key {
	n := d.Count(what, maxCount, 8)
	if n == 0 {
		return nil
	}
	keys := make([]join.Key, n)
	for i := range keys {
		keys[i] = join.Key(d.U64())
	}
	return keys
}
