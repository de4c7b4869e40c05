// Package stats provides deterministic pseudo-random number generation and
// the skewed key distributions used by the workload generators and samplers.
//
// Everything here is seedable and reproducible: the experiment harness relies
// on identical tuple streams across the CI, CSI and CSIO schemes so that
// differences in the measured work come from the partitioning alone.
package stats

// RNG is a small, fast, seedable pseudo-random number generator based on
// splitmix64. It is not safe for concurrent use; create one per goroutine
// (Split derives independent streams).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent-looking streams; the zero seed is valid.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + golden}
}

// Split derives a new generator whose stream is independent of the parent's
// subsequent output. Use it to hand per-worker generators out of one seed.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// golden is splitmix64's state increment.
const golden = 0x9e3779b97f4a7c15

// Skip advances the generator past n draws in O(1), leaving it where n calls
// of Uint64 would: the state is a counter stepped by a constant, and only the
// output is mixed. A copy advanced by Skip therefore continues a stream from a
// known position, so two consumers of consecutive stretches of one stream can
// run at once and still draw what running them in order would.
func (r *RNG) Skip(n uint64) {
	r.state += n * golden
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int64n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int64n called with n <= 0")
	}
	// A plain modulo of one draw: the bias is negligible for n << 2^64, and
	// every caller's draw order counts on exactly one Uint64 per call.
	return int64(r.Uint64() % uint64(n))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	return int(r.Int64n(int64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly zero, which is
// required by the Efraimidis-Spirakis priority formula r^(1/w).
func (r *RNG) Float64Open() float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}
