package stats

import (
	"math"
	"slices"
)

// Zipf draws values in [0, N) with P(k) proportional to 1/(k+1)^s. It mirrors
// the Chaudhuri-Narasayya skewed TPC-H generator used in the paper (skew
// parameter z; z=0 is uniform, the paper's experiments use z=0.25).
//
// For domains up to cdfCap the exact CDF is precomputed and draws invert it
// with binary search. For larger domains draws invert the continuous Zipfian
// envelope x^-s, which matches the discrete distribution to within O(1/k)
// relative error per key — indistinguishable for workload generation, where
// only the skew shape matters.
type Zipf struct {
	n   int64
	s   float64
	cdf []float64 // exact CDF when n <= cdfCap, else nil
	t   float64   // total envelope mass when cdf == nil
}

const cdfCap = 1 << 20

// NewZipf returns a Zipf distribution over [0, n) with exponent s >= 0.
// It panics if n <= 0 or s < 0.
func NewZipf(n int64, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf called with n <= 0")
	}
	if s < 0 {
		panic("stats: NewZipf called with s < 0")
	}
	z := &Zipf{n: n, s: s}
	if n <= cdfCap {
		cdf := make([]float64, n)
		sum := 0.0
		for k := int64(0); k < n; k++ {
			sum += math.Pow(float64(k+1), -s)
			cdf[k] = sum
		}
		for k := range cdf {
			cdf[k] /= sum
		}
		z.cdf = cdf
		return z
	}
	z.t = z.envelopeCDF(float64(n) + 1)
	return z
}

// envelopeCDF integrates x^-s over [1, x].
func (z *Zipf) envelopeCDF(x float64) float64 {
	if z.s == 1 {
		return math.Log(x)
	}
	return (math.Pow(x, 1-z.s) - 1) / (1 - z.s)
}

// envelopeInv inverts envelopeCDF.
func (z *Zipf) envelopeInv(p float64) float64 {
	if z.s == 1 {
		return math.Exp(p)
	}
	return math.Pow(p*(1-z.s)+1, 1/(1-z.s))
}

// Draw returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Draw(r *RNG) int64 {
	if z.cdf != nil {
		u := r.Float64()
		i, _ := slices.BinarySearch(z.cdf, u)
		k := int64(i)
		if k >= z.n {
			k = z.n - 1
		}
		return k
	}
	x := z.envelopeInv(r.Float64() * z.t)
	k := int64(math.Floor(x)) - 1
	if k < 0 {
		k = 0
	}
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
