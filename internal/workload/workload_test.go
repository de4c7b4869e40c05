package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/sample"
	"ewh/internal/stats"
)

func TestXShape(t *testing.T) {
	keys := X(600, stats.NewRNG(1))
	if len(keys) != 3000 {
		t.Fatalf("X(600) has %d keys, want 3000", len(keys))
	}
	var dense, sparse int
	for _, k := range keys {
		if k <= 100 {
			dense++
		} else if k >= 2*2400 {
			sparse++
		} else {
			t.Fatalf("key %d outside both segments", k)
		}
	}
	if dense != 600 || sparse != 2400 {
		t.Fatalf("segments %d/%d, want 600/2400", dense, sparse)
	}
}

func TestXTinyInput(t *testing.T) {
	if got := X(1, stats.NewRNG(2)); len(got) != 30 {
		t.Fatalf("X clamps x to 6, got %d keys", len(got))
	}
}

// rhoOI computes output/(total input), Table IV's ρoi.
func rhoOI(r1, r2 []join.Key, cond join.Condition) float64 {
	m := sample.StreamSample(r1, r2, cond, 0, 4, nil).M
	return float64(m) / float64(len(r1)+len(r2))
}

func TestBCBRhoMatchesPaperShape(t *testing.T) {
	// Table IV: BCB-1 ρoi=1.81, BCB-3 ρoi=4.23, BCB-8 ρoi=10.27. The
	// generator is calibrated to ≈0.7·(2β+1); allow ±35% sampling slack.
	for _, c := range []struct {
		beta int64
		want float64
	}{{1, 1.81}, {3, 4.23}, {8, 10.27}} {
		r1, r2, cond := BCB(6000, c.beta, 3)
		got := rhoOI(r1, r2, cond)
		if got < c.want*0.65 || got > c.want*1.35 {
			t.Errorf("BCB-%d ρoi = %.2f, want ≈%.2f", c.beta, got, c.want)
		}
	}
}

func TestBICDRhoMatchesPaperShape(t *testing.T) {
	r1, r2, cond := BICD(20000, 0.25, 4)
	got := rhoOI(r1, r2, cond)
	// Table IV: ρoi = 0.62.
	if got < 0.4 || got > 0.9 {
		t.Errorf("BICD ρoi = %.2f, want ≈0.62", got)
	}
}

func TestBEOCDRhoMatchesPaperShape(t *testing.T) {
	r1, r2, cond, err := BEOCD(20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := rhoOI(r1, r2, cond)
	// Table IV: ρoi = 54.35; Zipf skew concentrates custkeys, raising m.
	if got < 25 || got > 120 {
		t.Errorf("BEOCD ρoi = %.2f, want tens", got)
	}
}

func TestBEOCDSemantics(t *testing.T) {
	// The composite-encoded band must equal the explicit
	// equality+priority-band predicate.
	spec := join.CompositeSpec{SecondaryMax: PrioMax - 1, Beta: 2}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	r1, r2, cond, err := BEOCD(400, 6)
	if err != nil {
		t.Fatal(err)
	}
	var direct int64
	for _, a := range r1 {
		c1, p1 := spec.Decode(a)
		for _, b := range r2 {
			c2, p2 := spec.Decode(b)
			d := p1 - p2
			if d < 0 {
				d = -d
			}
			if c1 == c2 && d <= 2 {
				direct++
			}
		}
	}
	if got := localjoin.NestedLoopCount(r1, r2, cond); got != direct {
		t.Fatalf("encoded join %d, direct predicate %d", got, direct)
	}
}

func TestBEOCDErrors(t *testing.T) {
	if _, _, _, err := BEOCD(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
}

// TestBEOCDDigest pins the relations BEOCD generates: the SHA-256 of r1 then
// r2, each key 8 bytes little-endian. Generating each ORDERS row and keeping
// it only if it passes the selections draws exactly what generating the
// whole table and filtering it did, so the digest is that path's.
func TestBEOCDDigest(t *testing.T) {
	r1, r2, _, err := BEOCD(2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, k := range append(r1, r2...) {
		binary.LittleEndian.PutUint64(b[:], uint64(k))
		h.Write(b[:])
	}
	const want = "40407f1db27c60bd55e9e2ff3a1ff391dc78e753bcf1c0f9aa21077ca561ea78"
	if len(r1) != 1948 || len(r2) != 2037 || hex.EncodeToString(h.Sum(nil)) != want {
		t.Fatalf("BEOCD(2000, 9): %d + %d keys, digest %x, want 1948 + 2037 keys, digest %s",
			len(r1), len(r2), h.Sum(nil), want)
	}
}

func TestGenOrdersSkew(t *testing.T) {
	o := GenOrders(50000, 1.0, stats.NewRNG(7))
	counts := map[join.Key]int{}
	for _, c := range o.CustKey {
		counts[c]++
	}
	if counts[0] <= counts[100]*2 {
		t.Errorf("custkey 0 count %d not skewed vs key 100 count %d", counts[0], counts[100])
	}
	for _, p := range o.Priority {
		if p < 0 || p >= PrioMax {
			t.Fatalf("priority %d out of range", p)
		}
	}
	for _, k := range o.OrderKey {
		if k < 0 || k >= 4*50000 {
			t.Fatalf("orderkey %d out of range", k)
		}
	}
}

func TestUniformAndZipfian(t *testing.T) {
	u := Uniform(1000, 100, 8)
	if len(u) != 1000 {
		t.Fatal("wrong size")
	}
	for _, k := range u {
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of domain", k)
		}
	}
	z := Zipfian(1000, 100, 0.5, 9)
	if len(z) != 1000 {
		t.Fatal("wrong size")
	}
	// Deterministic for equal seeds.
	z2 := Zipfian(1000, 100, 0.5, 9)
	for i := range z {
		if z[i] != z2[i] {
			t.Fatal("Zipfian not deterministic")
		}
	}
}
