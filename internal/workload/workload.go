// Package workload generates the paper's evaluation datasets (§VI-A) at a
// configurable scale: the synthetic X dataset behind the BCB band-join
// family and a TPC-H-like ORDERS analogue with Zipf(z) skew behind BICD and
// BEOCD. The generators are calibrated so the output/input ratios ρoi match
// Table IV's values at any scale (see DESIGN.md "Substitutions").
package workload

import (
	"fmt"

	"ewh/internal/join"
	"ewh/internal/stats"
	"ewh/internal/table"
)

// X generates one relation of the X dataset: two independently generated
// segments in proportion 20/80. The first segment has x tuples with keys
// uniform in [0, x/6] — a dense stripe producing almost all the output; the
// second has y = 4x tuples with keys uniform in [2y, 6y] — a sparse bulk.
// Joining two X relations with a band condition yields
// m ≈ 7x·(2β+1) output tuples, so ρoi = m/(2·5x) ≈ 0.7·(2β+1), matching
// Table IV's BCB-β row shapes (e.g. β=1 → ρoi ≈ 1.8).
func X(x int, rng *stats.RNG) []join.Key {
	if x < 6 {
		x = 6
	}
	y := 4 * x
	keys := make([]join.Key, 0, 5*x)
	for i := 0; i < x; i++ {
		keys = append(keys, rng.Int64n(int64(x/6)+1))
	}
	for i := 0; i < y; i++ {
		keys = append(keys, 2*int64(y)+rng.Int64n(4*int64(y)))
	}
	return keys
}

// XPair generates both X relations independently (the paper: "the segments
// from different relations are independently generated").
func XPair(x int, seed uint64) (r1, r2 []join.Key) {
	rng := stats.NewRNG(seed)
	return X(x, rng.Split()), X(x, rng.Split())
}

// Orders is a scaled TPC-H ORDERS analogue. Orderkey is uniform over a
// domain 4× the row count (TPC-H orderkeys are sparse); custkey is
// Zipf(z)-distributed over a domain of rows/10 — z=0.25 reproduces the
// paper's moderate redistribution skew. Priority is uniform in [0, PrioMax).
type Orders struct {
	OrderKey []join.Key
	CustKey  []join.Key
	Priority []int64
}

// PrioMax is the number of distinct ship priorities.
const PrioMax = 8

// GenOrders generates n rows with skew parameter z.
func GenOrders(n int, z float64, rng *stats.RNG) *Orders {
	custDomain := int64(n/10) + 1
	zipf := stats.NewZipf(custDomain, z)
	o := &Orders{
		OrderKey: make([]join.Key, n),
		CustKey:  make([]join.Key, n),
		Priority: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		o.OrderKey[i] = rng.Int64n(4 * int64(n))
		o.CustKey[i] = zipf.Draw(rng)
		o.Priority[i] = rng.Int64n(PrioMax)
	}
	return o
}

// BICD builds the Table IV input for the band-join
// ABS(O1.orderkey - 10*O2.custkey) <= 2: R1 carries orderkeys and R2 carries
// custkeys pre-scaled by 10 (the Shifted transform applied at load time).
// With orderkey density 1/4 each R2 tuple matches ≈ 5/4 keys, giving
// ρoi ≈ 0.62 as in the paper.
func BICD(n int, z float64, seed uint64) (r1, r2 []join.Key, cond join.Condition) {
	rng := stats.NewRNG(seed)
	o1 := GenOrders(n, z, rng.Split())
	o2 := GenOrders(n, z, rng.Split())
	r2 = make([]join.Key, n)
	for i, c := range o2.CustKey {
		r2[i] = 10 * c
	}
	return o1.OrderKey, r2, join.NewBand(2)
}

// BCB builds the Table IV input for the X-dataset band-join of width beta.
// x is the dense-segment size; each relation has 5x tuples.
func BCB(x int, beta int64, seed uint64) (r1, r2 []join.Key, cond join.Condition) {
	r1, r2 = XPair(x, seed)
	return r1, r2, join.NewBand(beta)
}

// BEOCDConfig scales the output-cost-dominated equi+band join. The paper's
// run has ρoi ≈ 54: with custkey domain n/CustDivisor and priorities banded
// by ±2 (≈53% of priority pairs match), each surviving tuple finds
// ≈ 0.53·n/(n/CustDivisor) ≈ 0.53·CustDivisor partners.
type BEOCDConfig struct {
	// N is the target per-relation row count *after* the selection
	// predicates; the generator sizes the base ORDERS tables so the filters
	// keep approximately N rows.
	N int
	// CustDivisor sets the custkey domain to N/CustDivisor (default 200,
	// calibrated to ρoi ≈ 54 as in Table IV).
	CustDivisor int
	// Z is the custkey Zipf skew (default 0.25).
	Z float64
	// Gamma is the totalprice lower bound of Appendix B's BETWEEN predicate
	// (default 120000; the paper raises γ with the scale factor to keep ρoi
	// stable).
	Gamma int64
}

func (c *BEOCDConfig) defaults() {
	if c.CustDivisor <= 0 {
		c.CustDivisor = 200
	}
	if c.Z == 0 {
		c.Z = 0.25
	}
	if c.Gamma == 0 {
		c.Gamma = 120000
	}
}

// Appendix-B literals for the ORDERS analogue.
const (
	prioNotSpecified = 4 // "4-NOT SPECIFIED"
	prioUrgent       = 1 // "1-URGENT"
	orderPrioCount   = 5
	totalPriceMax    = 400000
	totalPriceCap    = 360000 // the BETWEEN upper bound
)

// GenOrdersTable generates a full ORDERS analogue with the columns BEOCD
// filters and joins on: custkey (Zipf z over custDomain), shippriority
// (uniform [0, PrioMax)), orderpriority (uniform 1..5) and totalprice
// (uniform [0, 400000)).
func GenOrdersTable(n int, z float64, custDomain int64, rng *stats.RNG) *table.Table {
	zipf := stats.NewZipf(custDomain, z)
	cust := make([]int64, n)
	ship := make([]int64, n)
	oprio := make([]int64, n)
	price := make([]int64, n)
	for i := 0; i < n; i++ {
		cust[i] = zipf.Draw(rng)
		ship[i] = rng.Int64n(PrioMax)
		oprio[i] = 1 + rng.Int64n(orderPrioCount)
		price[i] = rng.Int64n(totalPriceMax)
	}
	t := table.New("orders")
	for _, c := range []struct {
		name string
		vals []int64
	}{
		{"custkey", cust}, {"shippriority", ship},
		{"orderpriority", oprio}, {"totalprice", price},
	} {
		if err := t.AddColumn(c.name, c.vals); err != nil {
			panic(err) // fresh table, equal lengths: cannot happen
		}
	}
	return t
}

// BEOCD builds Appendix B's output-cost-dominated query:
//
//	SELECT * FROM ORDERS O1, ORDERS O2
//	WHERE O1.custkey = O2.custkey
//	  AND ABS(O1.shippriority - O2.shippriority) <= 2
//	  AND O1.orderpriority = '4-NOT SPECIFIED'
//	  AND O2.orderpriority = '1-URGENT'
//	  AND O1.totalprice BETWEEN γ AND 360000
//	  AND O2.totalprice BETWEEN γ AND 360000
//
// The selection predicates run first and the surviving relations are
// materialized (§IV-A "Synergy"); the equality+band join predicate is
// encoded onto one monotonic key (join.CompositeSpec, whose doc says why the
// encoding is exact). It returns the encoded filtered relations and the
// equivalent band condition.
func BEOCD(cfg BEOCDConfig, seed uint64) (r1, r2 []join.Key, cond join.Condition, err error) {
	cfg.defaults()
	if cfg.N < 1 {
		return nil, nil, nil, fmt.Errorf("workload: BEOCD N = %d < 1", cfg.N)
	}
	spec := join.CompositeSpec{SecondaryMax: PrioMax - 1, Beta: 2}
	if err := spec.Validate(); err != nil {
		return nil, nil, nil, err
	}
	// Size the base tables so the filters keep ≈ N rows: the orderpriority
	// equality keeps 1/5, the price BETWEEN keeps (cap-γ)/max.
	keep := (1.0 / orderPrioCount) * float64(totalPriceCap-cfg.Gamma) / totalPriceMax
	if keep <= 0 {
		return nil, nil, nil, fmt.Errorf("workload: gamma %d leaves an empty BETWEEN range", cfg.Gamma)
	}
	base := int(float64(cfg.N)/keep) + 1
	custDomain := int64(cfg.N/cfg.CustDivisor) + 1

	rng := stats.NewRNG(seed)
	gen := func(r *stats.RNG, wantPrio int64) ([]join.Key, error) {
		t := GenOrdersTable(base, cfg.Z, custDomain, r)
		f := t.Filter(table.And(
			table.Eq("orderpriority", wantPrio),
			table.Between("totalprice", cfg.Gamma, totalPriceCap),
		))
		return f.EncodeKeys(spec, "custkey", "shippriority")
	}
	if r1, err = gen(rng.Split(), prioNotSpecified); err != nil {
		return nil, nil, nil, err
	}
	if r2, err = gen(rng.Split(), prioUrgent); err != nil {
		return nil, nil, nil, err
	}
	return r1, r2, spec.Condition(), nil
}

// Uniform generates n keys uniform over [0, domain) — the plain workload for
// tests and the quickstart example.
func Uniform(n int, domain int64, seed uint64) []join.Key {
	rng := stats.NewRNG(seed)
	keys := make([]join.Key, n)
	for i := range keys {
		keys[i] = rng.Int64n(domain)
	}
	return keys
}

// Zipfian generates n keys with Zipf(z) skew over [0, domain).
func Zipfian(n int, domain int64, z float64, seed uint64) []join.Key {
	rng := stats.NewRNG(seed)
	zipf := stats.NewZipf(domain, z)
	keys := make([]join.Key, n)
	for i := range keys {
		keys[i] = zipf.Draw(rng)
	}
	return keys
}
