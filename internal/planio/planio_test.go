package planio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
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
		if rng.Intn(2) == 0 {
			return partition.NewRegionScheme(name, regions)
		}
		rs, err := partition.NewRegionSchemeFor(name, regions, randSpec(rng))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
}

// randSpec draws one of the conditions a region scheme can route for.
func randSpec(rng *stats.RNG) join.Spec {
	specs := condSpecs()
	return specs[rng.Intn(len(specs))]
}

// condSpecs is every kind of condition, bands at both ends of their range.
func condSpecs() []join.Spec {
	specs := []join.Spec{{Kind: "equi"}, {Kind: "band"}, {Kind: "band", Beta: 3}, {Kind: "band", Beta: math.MaxInt64}}
	for op := join.Less; op <= join.GreaterEq; op++ {
		specs = append(specs, join.Spec{Kind: "inequality", Op: op})
	}
	return specs
}

func randArtifact(t testing.TB, kind int, rng *stats.RNG) *Artifact {
	t.Helper()
	return &Artifact{Scheme: randScheme(t, kind, rng), Seed: rng.Uint64()}
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
}

func TestRoundTripAllSchemes(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := stats.NewRNG(seed)
		for kind := 0; kind < 4; kind++ {
			checkRoundTrip(t, randArtifact(t, kind, rng), seed+99)
		}
	}
}

// TestConditionRoundTrip pins the condition a region scheme routes for
// through Encode∘Decode∘Encode: every kind comes back as it went, in a
// version 2 artifact, while the same regions without one keep version 1's
// bytes; a version 2 body whose condition is missing or malformed is refused.
func TestConditionRoundTrip(t *testing.T) {
	regions := nestedRegions(3)
	plain, err := Encode(&Artifact{Scheme: partition.NewRegionScheme("CSIO", regions), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(plain[4:]); v != codecVersion {
		t.Fatalf("a scheme without a condition encodes as version %d", v)
	}
	for _, spec := range condSpecs() {
		rs, err := partition.NewRegionSchemeFor("CSIO", regions, spec)
		if err != nil {
			t.Fatal(err)
		}
		a := &Artifact{Scheme: rs, Seed: 5}
		checkRoundTrip(t, a, 1)
		enc, _ := Encode(a)
		dec, _ := Decode(enc)
		if got, ok := dec.Scheme.(*partition.RegionScheme).Spec(); !ok || got != spec {
			t.Errorf("condition %+v round-tripped to %+v (%v)", spec, got, ok)
		}
		if v := binary.LittleEndian.Uint16(enc[4:]); v != codecVersionCond {
			t.Errorf("condition %+v encodes as version %d", spec, v)
		}
		// The condition sits between the name and the region count.
		body := len(codecMagic) + 2 + 8 + 1 + 1 + len("CSIO")
		if !bytes.Equal(enc[:body], plainHead(plain, body)) || !bytes.Equal(enc[body+1+len(spec.Kind)+9:], plain[body:]) {
			t.Errorf("condition %+v is not the only bytes beside version 1's", spec)
		}
	}
	band, _ := Encode(&Artifact{Scheme: mustFor(t, regions, join.Spec{Kind: "band", Beta: 3}), Seed: 5})
	body := len(codecMagic) + 2 + 8 + 1 + 1 + len("CSIO")
	for name, data := range map[string][]byte{
		"negative beta":   withBytes(band, body+1+len("band"), binary.LittleEndian.AppendUint64(nil, uint64(1<<63))),
		"unknown kind":    withBytes(band, body+1, []byte("bend")),
		"equi with beta":  withBytes(band, body+1, []byte("equi")),
		"no condition":    withBytes(plain, 4, []byte{codecVersionCond, 0}),
		"non-region body": withBytes(mustEncode(t, partition.NewCI(4)), 4, []byte{codecVersionCond, 0}),
	} {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted it", name)
		}
	}
}

// plainHead is a version 1 artifact's first n bytes with the version 2 tag.
func plainHead(plain []byte, n int) []byte {
	head := slices.Clone(plain[:n])
	binary.LittleEndian.PutUint16(head[4:], codecVersionCond)
	return head
}

// withBytes returns a copy of data with b written over it at off.
func withBytes(data []byte, off int, b []byte) []byte {
	out := slices.Clone(data)
	copy(out[off:], b)
	return out
}

func mustFor(t *testing.T, regions []tiling.Region, spec join.Spec) *partition.RegionScheme {
	t.Helper()
	rs, err := partition.NewRegionSchemeFor("CSIO", regions, spec)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func mustEncode(t *testing.T, s partition.Scheme) []byte {
	t.Helper()
	enc, err := Encode(&Artifact{Scheme: s, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return enc
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
	// The last byte is reserved: every non-zero value is refused by name, 1
	// included, which an artifact carrying a machine assignment once wrote.
	for _, b := range []byte{1, 2, 255} {
		_, err := Decode(withReserved(enc, b))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("reserved byte %d", b)) {
			t.Errorf("reserved byte %d: decode returned %v", b, err)
		}
	}
}

// withReserved returns a copy of an encoded artifact whose trailing reserved
// byte is b.
func withReserved(enc []byte, b byte) []byte {
	out := slices.Clone(enc)
	out[len(out)-1] = b
	return out
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
// index; Decode must refuse it having allocated next to nothing. So must one
// of 8,000 regions whose rectangles index in 32 k entries but which, routed
// for R1.A < R2.A, take nested key ranges of R1.
func TestDecodeRefusesQuadraticRegionTable(t *testing.T) {
	staggered := make([]tiling.Region, 8000)
	for i := range staggered {
		staggered[i] = tiling.Region{RowLo: 0, RowHi: 10, ColLo: join.Key(10 * i), ColHi: join.Key(10*i + 10)}
	}
	less := join.Spec{Kind: "inequality", Op: join.Less}
	if n := partition.SlabIndexSize(staggered, join.Spec{}); n > partition.MaxSlabIndex {
		t.Fatalf("the staggered rectangles alone index in %d entries", n)
	}
	for name, c := range map[string]struct {
		regions []tiling.Region
		spec    join.Spec
	}{"nested": {nestedRegions(8000), join.Spec{}}, "staggered under <": {staggered, less}} {
		enc := handEncoded(c.regions, c.spec)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(enc)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: Decode accepted %d regions (%d bytes)", name, len(c.regions), len(enc))
		}
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb >= 64 {
			t.Fatalf("%s: Decode allocated %d MB before refusing: %v", name, mb, err)
		}
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

// handEncoded encodes a region scheme without building it, as Encode would
// NewRegionSchemeFor(regions, spec) (NewRegionScheme's for a zero spec).
func handEncoded(regions []tiling.Region, spec join.Spec) []byte {
	version := uint16(codecVersion)
	if spec.Kind != "" {
		version = codecVersionCond
	}
	enc := binary.LittleEndian.AppendUint16(codecMagic[:], version)
	enc = binary.LittleEndian.AppendUint64(enc, 1) // seed
	enc = append(enc, tagRegion, 4, 'C', 'S', 'I', 'O')
	if spec.Kind != "" {
		enc = append(append(enc, byte(len(spec.Kind))), spec.Kind...)
		enc = append(binary.LittleEndian.AppendUint64(enc, uint64(spec.Beta)), byte(spec.Op))
	}
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(regions)))
	for _, r := range regions {
		enc = append(enc, make([]byte, 16)...) // rect
		for _, k := range []join.Key{r.RowLo, r.RowHi, r.ColLo, r.ColHi} {
			enc = binary.LittleEndian.AppendUint64(enc, uint64(k))
		}
		enc = append(enc, make([]byte, 24)...) // input, output, weight
	}
	return append(enc, 0) // reserved
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
// seeds: every scheme kind, random sizes, heavy keys, regions and RNG seeds
// must re-encode byte-exactly and route identically.
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
		f.Add(withReserved(enc, 1))
	}
	if h, err := partition.NewHash(4, []join.Key{1, 2}); err == nil {
		if enc, err := Encode(&Artifact{Scheme: h, Seed: 9}); err == nil {
			f.Add(enc)
		}
	}
	if enc, err := Encode(&Artifact{Scheme: partition.NewRegionScheme("CSIO", nestedRegions(6))}); err == nil {
		f.Add(enc)
	}
	f.Add(handEncoded(nestedRegions(6), join.Spec{Kind: "band", Beta: 3}))
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
