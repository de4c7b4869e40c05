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
	d := &decoder{buf: data}
	magic, err := d.bytes(len(summaryMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != string(summaryMagic[:]) {
		return nil, fmt.Errorf("planio: bad summary magic %q", magic)
	}
	version, err := d.u16()
	if err != nil {
		return nil, err
	}
	if version != summaryVersion {
		return nil, fmt.Errorf("planio: summary version %d unsupported (want %d)", version, summaryVersion)
	}
	s := &stats.Summary{}
	count, err := d.u64()
	if err != nil {
		return nil, err
	}
	s.Count = int64(count)
	capacity, err := d.count("summary capacity")
	if err != nil {
		return nil, err
	}
	s.Cap = capacity
	nkeys, err := d.count("summary key")
	if err != nil {
		return nil, err
	}
	if nkeys > 0 {
		s.Keys = make([]join.Key, nkeys)
		for i := range s.Keys {
			k, err := d.u64()
			if err != nil {
				return nil, err
			}
			s.Keys[i] = join.Key(k)
		}
	}
	nbounds, err := d.count("summary boundary")
	if err != nil {
		return nil, err
	}
	if nbounds > 0 {
		s.Bounds = make([]join.Key, nbounds)
		for i := range s.Bounds {
			k, err := d.u64()
			if err != nil {
				return nil, err
			}
			s.Bounds[i] = join.Key(k)
		}
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("planio: %d trailing bytes after summary", d.remaining())
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
