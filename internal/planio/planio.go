// Package planio is the binary codec that makes partitioning plans
// first-class, wire-encodable artifacts: every scheme the repo implements —
// Hash (with PRPD heavy keys), Broadcast, CI, and the region schemes CSI and
// CSIO (full region tables) — plus an optional heterogeneous-cluster
// assignment and the routing RNG seed round-trip through a compact,
// versioned, fixed-width little-endian encoding. A plan built anywhere
// (coordinator, CLI, a file on disk) executes identically everywhere: the
// netexec coordinator broadcasts an encoded artifact in the session
// protocol's PLAN frame so each worker re-shuffles its stage-1 matches with
// the exact scheme and seed the coordinator chose, and cmd/ewhplan persists
// artifacts for plan-once/execute-many runs.
//
// Encoding is canonical: Encode(Decode(Encode(a))) == Encode(a) byte for
// byte, which the fuzz harness asserts across all schemes and seeds.
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

// decoder is a bounds-checked cursor over an encoded artifact.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) remaining() int { return len(d.buf) - d.pos }

func (d *decoder) bytes(n int) ([]byte, error) {
	if d.remaining() < n {
		return nil, fmt.Errorf("planio: truncated artifact (%d bytes needed, %d left)", n, d.remaining())
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *decoder) u8() (byte, error) {
	b, err := d.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u16() (uint16, error) {
	b, err := d.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) f64() (float64, error) {
	u, err := d.u64()
	return math.Float64frombits(u), err
}

// count reads a u32 collection size and validates it against the codec cap.
func (d *decoder) count(what string) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if n > maxCount {
		return 0, fmt.Errorf("planio: %s count %d exceeds codec limit %d", what, n, maxCount)
	}
	return int(n), nil
}

// Decode reconstructs an artifact from Encode's output. The decoded scheme
// routes identically to the encoded one; re-encoding it reproduces the input
// bytes exactly.
func Decode(data []byte) (*Artifact, error) {
	d := &decoder{buf: data}
	magic, err := d.bytes(len(codecMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != string(codecMagic[:]) {
		return nil, fmt.Errorf("planio: bad magic %q", magic)
	}
	version, err := d.u16()
	if err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("planio: artifact version %d unsupported (want %d)", version, codecVersion)
	}
	a := &Artifact{}
	if a.Seed, err = d.u64(); err != nil {
		return nil, err
	}
	if a.Scheme, err = decodeScheme(d); err != nil {
		return nil, err
	}
	hasAssign, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch hasAssign {
	case 0:
	case 1:
		if a.Assignment, err = decodeAssignment(d); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("planio: assignment flag %d", hasAssign)
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("planio: %d trailing bytes after artifact", d.remaining())
	}
	return a, nil
}

func decodeScheme(d *decoder) (partition.Scheme, error) {
	tag, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagHash:
		workers, err := d.count("worker")
		if err != nil {
			return nil, err
		}
		nheavy, err := d.count("heavy key")
		if err != nil {
			return nil, err
		}
		heavy := make([]join.Key, nheavy)
		for i := range heavy {
			k, err := d.u64()
			if err != nil {
				return nil, err
			}
			heavy[i] = join.Key(k)
			// Strictly increasing keys are the canonical wire form (NewHash
			// sorts and dedups); anything else would re-encode differently.
			if i > 0 && heavy[i] <= heavy[i-1] {
				return nil, fmt.Errorf("planio: heavy keys not strictly increasing at %d", i)
			}
		}
		return partition.NewHash(workers, heavy)
	case tagBroadcast:
		workers, err := d.count("worker")
		if err != nil {
			return nil, err
		}
		return partition.NewBroadcast(workers)
	case tagCI:
		rows, err := d.u32()
		if err != nil {
			return nil, err
		}
		cols, err := d.u32()
		if err != nil {
			return nil, err
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
		nameLen, err := d.u8()
		if err != nil {
			return nil, err
		}
		nameBytes, err := d.bytes(int(nameLen))
		if err != nil {
			return nil, err
		}
		name := string(nameBytes)
		nregions, err := d.count("region")
		if err != nil {
			return nil, err
		}
		if nregions < 1 {
			return nil, fmt.Errorf("planio: region scheme %q without regions", name)
		}
		regions := make([]tiling.Region, nregions)
		for i := range regions {
			r := &regions[i]
			rect := [4]uint32{}
			for j := range rect {
				if rect[j], err = d.u32(); err != nil {
					return nil, err
				}
			}
			r.Rect = matrix.Rect{R0: int(rect[0]), C0: int(rect[1]), R1: int(rect[2]), C1: int(rect[3])}
			bounds := [4]uint64{}
			for j := range bounds {
				if bounds[j], err = d.u64(); err != nil {
					return nil, err
				}
			}
			r.RowLo, r.RowHi = join.Key(bounds[0]), join.Key(bounds[1])
			r.ColLo, r.ColHi = join.Key(bounds[2]), join.Key(bounds[3])
			if r.RowLo >= r.RowHi || r.ColLo >= r.ColHi {
				return nil, fmt.Errorf("planio: region %d has empty key range", i)
			}
			if r.Input, err = d.f64(); err != nil {
				return nil, err
			}
			if r.Output, err = d.f64(); err != nil {
				return nil, err
			}
			if r.Weight, err = d.f64(); err != nil {
				return nil, err
			}
		}
		// Nested key ranges cover ~n² slabs: refused before the index is built.
		if n := partition.SlabIndexSize(regions); n > partition.MaxSlabIndex {
			return nil, fmt.Errorf("planio: regions need a routing index of %d entries, limit %d", n, partition.MaxSlabIndex)
		}
		return partition.NewRegionScheme(name, regions), nil
	}
	return nil, fmt.Errorf("planio: unknown scheme tag %d", tag)
}

func decodeAssignment(d *decoder) (*partition.Assignment, error) {
	nregions, err := d.count("assigned region")
	if err != nil {
		return nil, err
	}
	a := &partition.Assignment{MachineOf: make([]int, nregions)}
	for i := range a.MachineOf {
		m, err := d.u32()
		if err != nil {
			return nil, err
		}
		a.MachineOf[i] = int(m)
	}
	nmachines, err := d.count("machine")
	if err != nil {
		return nil, err
	}
	a.Load = make([]float64, nmachines)
	a.Capacity = make([]float64, nmachines)
	for i := 0; i < nmachines; i++ {
		if a.Load[i], err = d.f64(); err != nil {
			return nil, err
		}
		if a.Capacity[i], err = d.f64(); err != nil {
			return nil, err
		}
	}
	for i, m := range a.MachineOf {
		if m >= nmachines {
			return nil, fmt.Errorf("planio: region %d assigned to machine %d of %d", i, m, nmachines)
		}
	}
	return a, nil
}
