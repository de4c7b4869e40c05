package planio

import (
	"errors"
	"testing"

	"ewh/internal/join"
	"ewh/internal/partition"
	"ewh/internal/tiling"
)

func shrinkRegions(n int) []tiling.Region {
	regions := make([]tiling.Region, n)
	for i := range regions {
		lo := join.Key(int64(i * 100))
		regions[i] = tiling.Region{
			RowLo: lo, RowHi: lo + 100,
			ColLo: lo, ColHi: lo + 100,
			Weight: float64(1 + i),
		}
	}
	return regions
}

func TestShrinkHashPreservesHeavyKeysAndSeed(t *testing.T) {
	heavy := []join.Key{7, -3, 999}
	h, err := partition.NewHash(4, heavy)
	if err != nil {
		t.Fatal(err)
	}
	a := &Artifact{Scheme: h, Seed: 42}
	out, err := ShrinkToFleet(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seed != 42 {
		t.Fatalf("seed %d, want 42", out.Seed)
	}
	h2, ok := out.Scheme.(*partition.Hash)
	if !ok || h2.Workers() != 3 {
		t.Fatalf("shrunk scheme %T/%d workers", out.Scheme, out.Scheme.Workers())
	}
	if got := h2.HeavyKeys(); len(got) != len(heavy) {
		t.Fatalf("heavy keys %v, want %v", got, heavy)
	}
}

func TestShrinkBroadcastAndCI(t *testing.T) {
	b, err := partition.NewBroadcast(5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ShrinkToFleet(&Artifact{Scheme: b, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Scheme.(*partition.Broadcast); !ok || out.Scheme.Workers() != 2 {
		t.Fatalf("broadcast shrink: %T/%d", out.Scheme, out.Scheme.Workers())
	}
	out, err = ShrinkToFleet(&Artifact{Scheme: partition.NewCI(9), Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ci, ok := out.Scheme.(*partition.CI); !ok || ci.Workers() != 4 {
		t.Fatalf("CI shrink: %T/%d", out.Scheme, out.Scheme.Workers())
	}
}

func TestShrinkFittingSchemeIsIdentity(t *testing.T) {
	h, err := partition.NewHash(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := &Artifact{Scheme: h, Seed: 5}
	out, err := ShrinkToFleet(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out != a {
		t.Fatal("a fitting content-insensitive artifact should be returned as-is")
	}
}

func TestShrinkRegionSchemeReusedWhenFits(t *testing.T) {
	// 3 or 2 regions on a fleet shrunk to 3 workers: the scheme (the
	// exactly-once unit set) and the seed must be reused untouched.
	for _, n := range []int{3, 2} {
		a := &Artifact{Scheme: partition.NewRegionScheme("CSIO", shrinkRegions(n)), Seed: 11}
		out, err := ShrinkToFleet(a, 3)
		if err != nil {
			t.Fatal(err)
		}
		if out.Scheme != a.Scheme {
			t.Fatalf("%d regions: region scheme was rebuilt; must be reused verbatim", n)
		}
		if out.Seed != 11 {
			t.Fatalf("%d regions: seed %d", n, out.Seed)
		}
	}
}

func TestShrinkRegionSchemeNeedsReplan(t *testing.T) {
	// 4 regions cannot run on 3 workers: merging regions manufactures pairs
	// no region contains, so the only correct answers are a stats replan or
	// the CI fallback — signalled by ErrNeedsReplan.
	s := partition.NewRegionScheme("CSIO", shrinkRegions(4))
	_, err := ShrinkToFleet(&Artifact{Scheme: s, Seed: 1}, 3)
	if !errors.Is(err, ErrNeedsReplan) {
		t.Fatalf("want ErrNeedsReplan, got %v", err)
	}
}

func TestShrinkArgumentErrors(t *testing.T) {
	if _, err := ShrinkToFleet(nil, 2); err == nil {
		t.Error("nil artifact accepted")
	}
	if _, err := ShrinkToFleet(&Artifact{}, 2); err == nil {
		t.Error("schemeless artifact accepted")
	}
	h, err := partition.NewHash(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ShrinkToFleet(&Artifact{Scheme: h}, 0); err == nil {
		t.Error("zero-worker fleet accepted")
	}
}

func TestShrinkRoundTripsThroughCodec(t *testing.T) {
	// A shrunk artifact must still encode/decode — recovery re-serializes it
	// for the surviving workers.
	heavy := []join.Key{1, 2}
	h, err := partition.NewHash(6, heavy)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ShrinkToFleet(&Artifact{Scheme: h, Seed: 77}, 4)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Encode(out)
	if err != nil {
		t.Fatalf("encode shrunk artifact: %v", err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode shrunk artifact: %v", err)
	}
	if dec.Seed != 77 || dec.Scheme.Workers() != 4 {
		t.Fatalf("round trip: seed %d, workers %d", dec.Seed, dec.Scheme.Workers())
	}
}
