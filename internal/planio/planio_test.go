package planio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ewh/internal/join"
	"ewh/internal/matrix"
	"ewh/internal/partition"
	"ewh/internal/stats"
	"ewh/internal/tiling"
)

// randScheme derives a random scheme of the given kind from an RNG stream —
// the generator both the table tests and the fuzz harness draw from.
func randScheme(t testing.TB, kind int, rng *stats.RNG) partition.Scheme {
	t.Helper()
	j := 1 + rng.Intn(16)
	switch kind % 4 {
	case 0:
		var heavy []join.Key
		for i, n := 0, rng.Intn(5); i < n; i++ {
			heavy = append(heavy, join.Key(rng.Int64n(1000)-500))
		}
		h, err := partition.NewHash(j, heavy)
		if err != nil {
			t.Fatal(err)
		}
		return h
	case 1:
		b, err := partition.NewBroadcast(j)
		if err != nil {
			t.Fatal(err)
		}
		return b
	case 2:
		return partition.NewCI(j)
	default:
		name := "CSIO"
		if rng.Intn(2) == 0 {
			name = "CSI"
		}
		regions := make([]tiling.Region, 1+rng.Intn(8))
		for i := range regions {
			rowLo := rng.Int64n(1000) - 500
			colLo := rng.Int64n(1000) - 500
			regions[i] = tiling.Region{
				Rect: matrix.Rect{
					R0: rng.Intn(32), C0: rng.Intn(32),
					R1: rng.Intn(32), C1: rng.Intn(32),
				},
				RowLo: join.Key(rowLo), RowHi: join.Key(rowLo + 1 + rng.Int64n(100)),
				ColLo: join.Key(colLo), ColHi: join.Key(colLo + 1 + rng.Int64n(100)),
				Input: rng.Float64() * 1e6, Output: rng.Float64() * 1e6,
				Weight: rng.Float64() * 1e6,
			}
		}
		return partition.NewRegionScheme(name, regions)
	}
}

func randArtifact(t testing.TB, kind int, rng *stats.RNG) *Artifact {
	t.Helper()
	a := &Artifact{Scheme: randScheme(t, kind, rng), Seed: rng.Uint64()}
	if rng.Intn(3) == 0 {
		nm := 1 + rng.Intn(4)
		caps := make([]float64, nm)
		for i := range caps {
			caps[i] = 0.5 + rng.Float64()
		}
		nr := 1 + rng.Intn(8)
		regions := make([]tiling.Region, nr)
		for i := range regions {
			regions[i].Weight = rng.Float64() * 100
		}
		assign, err := partition.AssignRegions(regions, caps)
		if err != nil {
			t.Fatal(err)
		}
		a.Assignment = assign
	}
	return a
}

// checkRoundTrip asserts the codec's two invariants for one artifact: the
// decoded scheme routes identically to the original (both relations, over a
// deterministic RNG replay), and re-encoding the decoded artifact reproduces
// the bytes exactly.
func checkRoundTrip(t testing.TB, a *Artifact, rngSeed uint64) {
	t.Helper()
	enc, err := Encode(a)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Seed != a.Seed {
		t.Fatalf("seed %d round-tripped to %d", a.Seed, dec.Seed)
	}
	reenc, err := Encode(dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(enc, reenc) {
		t.Fatalf("artifact not byte-exact: %d bytes vs %d after round trip", len(enc), len(reenc))
	}
	if got, want := dec.Scheme.Workers(), a.Scheme.Workers(); got != want {
		t.Fatalf("workers %d round-tripped to %d", want, got)
	}
	if got, want := dec.Scheme.Name(), a.Scheme.Name(); got != want {
		t.Fatalf("name %q round-tripped to %q", want, got)
	}
	// Routing equivalence: identical receivers and tallies for a spread of
	// keys, with both schemes consuming identical RNG streams.
	keys := make([]join.Key, 64)
	for i := range keys {
		keys[i] = join.Key(int64(i*37) - 700)
	}
	rngA, rngB := stats.NewRNG(rngSeed), stats.NewRNG(rngSeed)
	for rel, route := range []func(partition.Scheme, []join.Key, *stats.RNG, *partition.RouteBatch){
		partition.RouteBatchR1, partition.RouteBatchR2} {
		var ba, bb partition.RouteBatch
		ba.Reset(a.Scheme.Workers(), len(keys))
		bb.Reset(a.Scheme.Workers(), len(keys))
		route(a.Scheme, keys, rngA, &ba)
		route(dec.Scheme, keys, rngB, &bb)
		if !slices.Equal(ba.Counts, bb.Counts) {
			t.Fatalf("relation %d tallies %v, decoded scheme %v", rel+1, ba.Counts, bb.Counts)
		}
		for i, k := range keys {
			if wa, wb := ba.Receivers(i), bb.Receivers(i); !slices.Equal(wa, wb) {
				t.Fatalf("relation %d key %d routes to %v, decoded scheme to %v", rel+1, k, wa, wb)
			}
		}
	}
	if a.Assignment != nil {
		if dec.Assignment == nil {
			t.Fatal("assignment lost in round trip")
		}
		if fmt.Sprint(a.Assignment.MachineOf) != fmt.Sprint(dec.Assignment.MachineOf) {
			t.Fatalf("assignment machines differ: %v vs %v",
				a.Assignment.MachineOf, dec.Assignment.MachineOf)
		}
	}
}

func TestRoundTripAllSchemes(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := stats.NewRNG(seed)
		for kind := 0; kind < 4; kind++ {
			checkRoundTrip(t, randArtifact(t, kind, rng), seed+99)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	a := &Artifact{Scheme: partition.NewCI(6), Seed: 7}
	enc, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte("XXXX"), enc[4:]...),
		"bad version":   append(append([]byte{}, enc[:4]...), append([]byte{99, 0}, enc[6:]...)...),
		"truncated":     enc[:len(enc)-3],
		"trailing junk": append(append([]byte{}, enc...), 1, 2, 3),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted corrupt artifact", name)
		}
	}
}

// nestedRegions returns n regions [i, 2n-i) on both axes: every region covers
// every slab the next one does, so the scheme's slab tables hold ~n² entries.
func nestedRegions(n int) []tiling.Region {
	regions := make([]tiling.Region, n)
	for i := range regions {
		lo, hi := join.Key(i), join.Key(2*n-i)
		regions[i] = tiling.Region{RowLo: lo, RowHi: hi, ColLo: lo, ColHi: hi}
	}
	return regions
}

// TestDecodeAllocatesWhatItsBytesBack: a collection count the record is too
// short to hold is refused before anything is allocated for it — a 23-byte
// artifact declaring 2^20 heavy keys, or a summary declaring as many keys,
// must not cost 8 MB.
func TestDecodeAllocatesWhatItsBytesBack(t *testing.T) {
	head := append(codecMagic[:], 0, 0)
	binary.LittleEndian.PutUint16(head[4:], codecVersion)
	head = binary.LittleEndian.AppendUint64(head, 1) // seed
	artifact := binary.LittleEndian.AppendUint32(append(head, tagHash, 1, 0, 0, 0), maxCount)
	summary := append(summaryMagic[:], 0, 0)
	binary.LittleEndian.PutUint16(summary[4:], summaryVersion)
	summary = binary.LittleEndian.AppendUint64(summary, maxCount) // count
	summary = binary.LittleEndian.AppendUint32(summary, 1)        // cap
	summary = binary.LittleEndian.AppendUint32(summary, maxCount) // keys
	for name, decode := range map[string]func() error{
		"artifact": func() error { _, err := Decode(artifact); return err },
		"summary":  func() error { _, err := DecodeSummary(summary); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew >= 64<<10 {
			t.Errorf("%s: a short record allocated %d bytes (err %v), want a refusal first", name, grew, err)
		}
	}
}

// TestDecodeRefusesQuadraticRegionTable: a 562 KB artifact of 8,000 nested
// regions passes every per-region check and asks for a 128 M-entry routing
// index; Decode must refuse it having allocated next to nothing.
func TestDecodeRefusesQuadraticRegionTable(t *testing.T) {
	regions := nestedRegions(8000)
	// Encoded by hand: NewRegionScheme would build the index being refused.
	enc := append(codecMagic[:], 0, 0)
	binary.LittleEndian.PutUint16(enc[4:], codecVersion)
	enc = binary.LittleEndian.AppendUint64(enc, 1) // seed
	enc = append(enc, tagRegion, 4, 'C', 'S', 'I', 'O')
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(regions)))
	for _, r := range regions {
		enc = append(enc, make([]byte, 16)...) // rect
		for _, k := range []join.Key{r.RowLo, r.RowHi, r.ColLo, r.ColHi} {
			enc = binary.LittleEndian.AppendUint64(enc, uint64(k))
		}
		enc = append(enc, make([]byte, 24)...) // input, output, weight
	}
	enc = append(enc, 0) // no assignment
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(enc)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("Decode accepted %d nested regions (%d bytes)", len(regions), len(enc))
	}
	if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb >= 64 {
		t.Fatalf("Decode allocated %d MB before refusing: %v", mb, err)
	}
	// A table a planner could emit still decodes: 64 nested regions.
	small, err := Encode(&Artifact{Scheme: partition.NewRegionScheme("CSIO", nestedRegions(64))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(small); err != nil {
		t.Fatalf("Decode refused 64 nested regions: %v", err)
	}
}

func TestEncodeRejectsForeignScheme(t *testing.T) {
	if _, err := Encode(&Artifact{Scheme: foreignScheme{}}); err == nil {
		t.Fatal("encode accepted a scheme type without a codec")
	}
}

type foreignScheme struct{}

func (foreignScheme) Name() string                                               { return "foreign" }
func (foreignScheme) Workers() int                                               { return 1 }
func (foreignScheme) RouteBatchR1([]join.Key, *stats.RNG, *partition.RouteBatch) {}
func (foreignScheme) RouteBatchR2([]join.Key, *stats.RNG, *partition.RouteBatch) {}

// FuzzArtifactRoundTrip drives the round-trip invariants from fuzzer-chosen
// seeds: every scheme kind, random sizes, heavy keys, regions, assignments
// and RNG seeds must re-encode byte-exactly and route identically.
func FuzzArtifactRoundTrip(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, int(seed%4))
	}
	f.Fuzz(func(t *testing.T, seed uint64, kind int) {
		if kind < 0 {
			kind = -kind
		}
		rng := stats.NewRNG(seed)
		checkRoundTrip(t, randArtifact(t, kind, rng), seed^0xabcdef)
	})
}

// FuzzDecode throws arbitrary bytes at the decoder: it must never panic, and
// anything it accepts must re-encode byte-exactly.
func FuzzDecode(f *testing.F) {
	if enc, err := Encode(&Artifact{Scheme: partition.NewCI(8), Seed: 3}); err == nil {
		f.Add(enc)
	}
	if h, err := partition.NewHash(4, []join.Key{1, 2}); err == nil {
		if enc, err := Encode(&Artifact{Scheme: h, Seed: 9}); err == nil {
			f.Add(enc)
		}
	}
	if enc, err := Encode(&Artifact{Scheme: partition.NewRegionScheme("CSIO", nestedRegions(6))}); err == nil {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			return
		}
		reenc, err := Encode(a)
		if err != nil {
			t.Fatalf("re-encode of accepted artifact failed: %v", err)
		}
		if !bytes.Equal(data, reenc) {
			t.Fatalf("accepted artifact not canonical: %d bytes in, %d out", len(data), len(reenc))
		}
	})
}
