// Package planio is the binary codec that makes partitioning plans
// first-class, wire-encodable artifacts: every scheme the repo implements —
// Hash (with PRPD heavy keys), Broadcast, CI, and the region schemes CSI and
// CSIO (full region tables) — plus an optional heterogeneous-cluster
// assignment and the routing RNG seed round-trip through a compact,
// versioned, fixed-width little-endian encoding. A plan built anywhere
// (coordinator, CLI, a file on disk) executes identically everywhere: the
// netexec coordinator broadcasts an encoded artifact in the session
// protocol's PLAN2 frame so each worker re-shuffles its stage-1 matches with
// the exact scheme and seed the coordinator chose, and cmd/ewhplan persists
// artifacts for plan-once/execute-many runs.
//
// Encoding is canonical: Encode(Decode(Encode(a))) == Encode(a) byte for
// byte, which the fuzz harness asserts across all schemes and seeds. Cursor,
// the decoders' bounds-checked reader, reads netexec's control records too.
package planio

import (
	"encoding/binary"
	"fmt"
	"math"

	"ewh/internal/join"
	"ewh/internal/matrix"
	"ewh/internal/partition"
	"ewh/internal/tiling"
)

// Artifact is one serializable partitioning plan: the scheme that routes
// tuples, the seed that drives its randomized routing decisions, and the
// optional region→machine assignment for heterogeneous clusters.
type Artifact struct {
	// Scheme routes tuples. Must be one of the package partition schemes.
	Scheme partition.Scheme
	// Seed drives randomized routing (CI rows/columns, Hash heavy-key
	// scatter). Executors derive their shuffle RNG streams from it, so two
	// holders of the same artifact route identically.
	Seed uint64
	// Assignment optionally maps the scheme's regions onto physical machines
	// of heterogeneous capacity (§A5); nil when regions map 1:1 to workers.
	Assignment *partition.Assignment
}

// Wire format (all integers little-endian, floats as IEEE-754 bits):
//
//	magic "EWHP" | u16 version | u64 seed | u8 schemeTag | scheme body |
//	u8 hasAssignment | [assignment body]
//
//	schemeTag 1 Hash:      u32 workers | u32 nheavy | nheavy × u64 key
//	schemeTag 2 Broadcast: u32 workers
//	schemeTag 3 CI:        u32 rows | u32 cols
//	schemeTag 4 Region:    u8 nameLen | name | u32 nregions | nregions ×
//	                       (4 × u32 rect | 4 × u64 key bounds | 3 × f64)
//
//	assignment body: u32 nregions | nregions × u32 machine |
//	                 u32 nmachines | nmachines × (f64 load | f64 capacity)
const (
	codecVersion = 1

	tagHash      = 1
	tagBroadcast = 2
	tagCI        = 3
	tagRegion    = 4

	// maxCount bounds every decoded collection (heavy keys, regions,
	// machines) and every scheme's workers: the decoder and the schemes'
	// group tables allocate from declared counts, so the cap is what keeps a
	// malformed artifact from OOMing its holder.
	maxCount = 1 << 20
)

var codecMagic = [4]byte{'E', 'W', 'H', 'P'}

// Encode serializes an artifact. It fails for scheme types outside package
// partition — external schemes need their own artifact format.
func Encode(a *Artifact) ([]byte, error) {
	if a.Scheme == nil {
		return nil, fmt.Errorf("planio: artifact without a scheme")
	}
	buf := make([]byte, 0, 64)
	buf = append(buf, codecMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, codecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, a.Seed)
	var err error
	if buf, err = appendScheme(buf, a.Scheme); err != nil {
		return nil, err
	}
	if a.Assignment == nil {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	return appendAssignment(buf, a.Assignment)
}

func appendScheme(buf []byte, s partition.Scheme) ([]byte, error) {
	if s.Workers() > maxCount {
		return nil, fmt.Errorf("planio: %d workers exceed codec limit %d", s.Workers(), maxCount)
	}
	switch v := s.(type) {
	case *partition.Hash:
		heavy := v.HeavyKeys()
		if len(heavy) > maxCount {
			return nil, fmt.Errorf("planio: %d heavy keys exceed codec limit %d", len(heavy), maxCount)
		}
		buf = append(buf, tagHash)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Workers()))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(heavy)))
		for _, k := range heavy {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
		}
		return buf, nil
	case *partition.Broadcast:
		buf = append(buf, tagBroadcast)
		return binary.LittleEndian.AppendUint32(buf, uint32(v.Workers())), nil
	case *partition.CI:
		rows, cols := v.Grid()
		buf = append(buf, tagCI)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rows))
		return binary.LittleEndian.AppendUint32(buf, uint32(cols)), nil
	case *partition.RegionScheme:
		name := v.Name()
		regions := v.Regions()
		if len(name) > 255 {
			return nil, fmt.Errorf("planio: scheme name %q too long", name)
		}
		buf = append(buf, tagRegion, byte(len(name)))
		buf = append(buf, name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(regions)))
		for _, r := range regions {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Rect.R0))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Rect.C0))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Rect.R1))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Rect.C1))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.RowLo))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.RowHi))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ColLo))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ColHi))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Input))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Output))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Weight))
		}
		return buf, nil
	}
	return nil, fmt.Errorf("planio: scheme %T has no codec", s)
}

func appendAssignment(buf []byte, a *partition.Assignment) ([]byte, error) {
	if len(a.MachineOf) > maxCount || len(a.Capacity) > maxCount {
		return nil, fmt.Errorf("planio: assignment size exceeds codec limit %d", maxCount)
	}
	if len(a.Load) != len(a.Capacity) {
		return nil, fmt.Errorf("planio: assignment has %d loads for %d capacities", len(a.Load), len(a.Capacity))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.MachineOf)))
	for _, m := range a.MachineOf {
		if m < 0 || m >= len(a.Capacity) {
			return nil, fmt.Errorf("planio: region assigned to machine %d of %d", m, len(a.Capacity))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Capacity)))
	for i := range a.Capacity {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Load[i]))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Capacity[i]))
	}
	return buf, nil
}

// Cursor is the one bounds-checked reader over a fixed-layout little-endian
// record: a plan artifact, a statistics summary, a session control frame.
// Its first error is sticky: every read after it returns zero values, so a
// decoder reads field after field and checks Err (or Done) once.
type Cursor struct {
	buf []byte
	err error
}

// NewCursor reads b from its first byte.
func NewCursor(b []byte) *Cursor { return &Cursor{buf: b} }

// Err reports the cursor's first error.
func (c *Cursor) Err() error { return c.err }

// Fail records err unless an earlier error is already recorded.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Bytes takes the next n bytes, aliasing the input; nil once failed.
func (c *Cursor) Bytes(n int) []byte {
	if c.err == nil && (n < 0 || n > len(c.buf)) {
		c.err = fmt.Errorf("planio: truncated record (%d bytes needed, %d left)", n, len(c.buf))
	}
	if c.err != nil {
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

func (c *Cursor) U8() byte {
	if b := c.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *Cursor) U16() uint16 {
	if b := c.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (c *Cursor) U32() uint32 {
	if b := c.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *Cursor) U64() uint64 {
	if b := c.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Blob reads a u32 length and that many bytes.
func (c *Cursor) Blob() []byte { return c.Bytes(int(c.U32())) }

// Count reads a u32 collection size of elements at least size bytes long.
// Over max, or longer than the bytes left could hold, it fails the cursor
// and returns 0: a decoder allocates from a count only once the record's
// length backs it.
func (c *Cursor) Count(what string, max, size int) int {
	n := int(c.U32())
	switch {
	case n > max:
		c.Fail(fmt.Errorf("planio: %s count %d exceeds codec limit %d", what, n, max))
	case n*size > len(c.buf):
		c.Fail(fmt.Errorf("planio: truncated record (%d %ss need %d bytes, %d left)", n, what, n*size, len(c.buf)))
	}
	if c.err != nil {
		return 0
	}
	return n
}

// Done ends a record: the first error, or one naming trailing bytes.
func (c *Cursor) Done(what string) error {
	if c.err == nil && len(c.buf) != 0 {
		c.err = fmt.Errorf("planio: %d trailing bytes after %s", len(c.buf), what)
	}
	return c.err
}

// regionLen is one encoded region: a rect, four key bounds, three floats.
const regionLen = 4*4 + 4*8 + 3*8

// Decode reconstructs an artifact from Encode's output. The decoded scheme
// routes identically to the encoded one; re-encoding it reproduces the input
// bytes exactly.
func Decode(data []byte) (*Artifact, error) {
	d := NewCursor(data)
	if magic := d.Bytes(len(codecMagic)); d.err == nil && string(magic) != string(codecMagic[:]) {
		return nil, fmt.Errorf("planio: bad magic %q", magic)
	}
	if version := d.U16(); d.err == nil && version != codecVersion {
		return nil, fmt.Errorf("planio: artifact version %d unsupported (want %d)", version, codecVersion)
	}
	a := &Artifact{Seed: d.U64()}
	if d.err != nil {
		return nil, d.err
	}
	var err error
	if a.Scheme, err = decodeScheme(d); err != nil {
		return nil, err
	}
	switch hasAssign := d.U8(); {
	case d.err != nil, hasAssign == 0:
	case hasAssign == 1:
		if a.Assignment, err = decodeAssignment(d); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("planio: assignment flag %d", hasAssign)
	}
	if err := d.Done("artifact"); err != nil {
		return nil, err
	}
	return a, nil
}

func decodeScheme(d *Cursor) (partition.Scheme, error) {
	tag := d.U8()
	if d.err != nil {
		return nil, d.err
	}
	switch tag {
	case tagHash:
		workers := d.Count("worker", maxCount, 0)
		heavy := make([]join.Key, d.Count("heavy key", maxCount, 8))
		for i := range heavy {
			heavy[i] = join.Key(d.U64())
			// Strictly increasing keys are the canonical wire form (NewHash
			// sorts and dedups); anything else would re-encode differently.
			if i > 0 && heavy[i] <= heavy[i-1] {
				return nil, fmt.Errorf("planio: heavy keys not strictly increasing at %d", i)
			}
		}
		if d.err != nil {
			return nil, d.err
		}
		return partition.NewHash(workers, heavy)
	case tagBroadcast:
		workers := d.Count("worker", maxCount, 0)
		if d.err != nil {
			return nil, d.err
		}
		return partition.NewBroadcast(workers)
	case tagCI:
		rows, cols := d.U32(), d.U32()
		if d.err != nil {
			return nil, d.err
		}
		if rows < 1 || cols < 1 || uint64(rows)*uint64(cols) > maxCount {
			return nil, fmt.Errorf("planio: CI grid %dx%d invalid", rows, cols)
		}
		ci := partition.NewCI(int(rows) * int(cols))
		// NewCI re-derives the most square grid; an artifact carrying a
		// different factorization of the same worker count would route
		// differently, so it must be rejected rather than silently reshaped.
		if r, c := ci.Grid(); r != int(rows) || c != int(cols) {
			return nil, fmt.Errorf("planio: CI grid %dx%d is not the canonical factorization (%dx%d)",
				rows, cols, r, c)
		}
		return ci, nil
	case tagRegion:
		name := string(d.Bytes(int(d.U8())))
		regions := make([]tiling.Region, d.Count("region", maxCount, regionLen))
		if d.err != nil {
			return nil, d.err
		}
		if len(regions) < 1 {
			return nil, fmt.Errorf("planio: region scheme %q without regions", name)
		}
		for i := range regions {
			r := &regions[i]
			r.Rect = matrix.Rect{R0: int(d.U32()), C0: int(d.U32()), R1: int(d.U32()), C1: int(d.U32())}
			r.RowLo, r.RowHi = join.Key(d.U64()), join.Key(d.U64())
			r.ColLo, r.ColHi = join.Key(d.U64()), join.Key(d.U64())
			if r.RowLo >= r.RowHi || r.ColLo >= r.ColHi {
				return nil, fmt.Errorf("planio: region %d has empty key range", i)
			}
			r.Input, r.Output, r.Weight = d.F64(), d.F64(), d.F64()
		}
		// Nested key ranges cover ~n² slabs: refused before the index is built.
		if n := partition.SlabIndexSize(regions); n > partition.MaxSlabIndex {
			return nil, fmt.Errorf("planio: regions need a routing index of %d entries, limit %d", n, partition.MaxSlabIndex)
		}
		return partition.NewRegionScheme(name, regions), nil
	}
	return nil, fmt.Errorf("planio: unknown scheme tag %d", tag)
}

func decodeAssignment(d *Cursor) (*partition.Assignment, error) {
	a := &partition.Assignment{MachineOf: make([]int, d.Count("assigned region", maxCount, 4))}
	for i := range a.MachineOf {
		a.MachineOf[i] = int(d.U32())
	}
	nmachines := d.Count("machine", maxCount, 16)
	a.Load = make([]float64, nmachines)
	a.Capacity = make([]float64, nmachines)
	for i := 0; i < nmachines; i++ {
		a.Load[i], a.Capacity[i] = d.F64(), d.F64()
	}
	if d.err != nil {
		return nil, d.err
	}
	for i, m := range a.MachineOf {
		if m >= nmachines {
			return nil, fmt.Errorf("planio: region %d assigned to machine %d of %d", i, m, nmachines)
		}
	}
	return a, nil
}
