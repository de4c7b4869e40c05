// Package join defines the monotonic join conditions the partitioning schemes
// operate on: equality, band (|a-b| <= beta), inequality (<, <=, >, >=) and
// composite equality+band conditions encoded onto a single key.
//
// A condition is monotonic in the paper's sense (§III-B): over sorted join
// keys, the candidate cells of the join matrix are consecutive per row and
// per column. All conditions here expose the joinable key range of a given
// key, which is what makes O(1) grid-cell candidacy checks and the
// Stream-Sample output sampler possible.
package join

import (
	"fmt"
	"math"
)

// Key is a join key. Relations join on a single int64 attribute; composite
// conditions are encoded into one key (see CompositeSpec).
type Key = int64

// Condition is a monotonic join predicate between a key a from R1 and a key
// b from R2.
type Condition interface {
	// Matches reports whether the pair (a, b) satisfies the join predicate.
	Matches(a, b Key) bool

	// JoinableRange returns the inclusive range [lo, hi] of R2 keys joinable
	// with the R1 key a. Monotonicity guarantees the range is contiguous.
	JoinableRange(a Key) (lo, hi Key)

	// String describes the predicate, e.g. "|R1.A - R2.A| <= 2".
	fmt.Stringer
}

// Band is the band-join condition |a - b| <= Beta. Beta = 0 degenerates to
// equality.
type Band struct {
	Beta int64
}

// NewBand returns a band condition of half-width beta. It panics if beta < 0.
func NewBand(beta int64) Band {
	if beta < 0 {
		panic("join: NewBand called with beta < 0")
	}
	return Band{Beta: beta}
}

// Matches implements Condition. The distance is taken in uint64, where any two
// keys' difference fits, so the int64 extremes cannot wrap into a match.
func (b Band) Matches(a, k Key) bool {
	if a < k {
		a, k = k, a
	}
	return b.Beta >= 0 && uint64(a)-uint64(k) <= uint64(b.Beta)
}

// JoinableRange implements Condition. An end that would pass the key domain
// saturates at it instead of wrapping to the far side.
func (b Band) JoinableRange(a Key) (Key, Key) {
	lo, hi := a-b.Beta, a+b.Beta
	if b.Beta > 0 {
		if lo > a {
			lo = math.MinInt64
		}
		if hi < a {
			hi = math.MaxInt64
		}
	}
	return lo, hi
}

// String implements fmt.Stringer.
func (b Band) String() string {
	if b.Beta == 0 {
		return "R1.A = R2.A"
	}
	return fmt.Sprintf("|R1.A - R2.A| <= %d", b.Beta)
}

// Equi is the equality condition a = b.
type Equi struct{}

// Matches implements Condition.
func (Equi) Matches(a, b Key) bool { return a == b }

// JoinableRange implements Condition.
func (Equi) JoinableRange(a Key) (Key, Key) { return a, a }

// String implements fmt.Stringer.
func (Equi) String() string { return "R1.A = R2.A" }

// Op selects the comparison of an Inequality condition.
type Op int

// Comparison operators for Inequality.
const (
	Less Op = iota
	LessEq
	Greater
	GreaterEq
)

func (o Op) String() string {
	switch o {
	case Less:
		return "<"
	case LessEq:
		return "<="
	case Greater:
		return ">"
	case GreaterEq:
		return ">="
	}
	return "?"
}

// Inequality is the condition "a OP b", e.g. R1.A < R2.A.
type Inequality struct {
	Op Op
}

// Matches implements Condition.
func (q Inequality) Matches(a, b Key) bool {
	switch q.Op {
	case Less:
		return a < b
	case LessEq:
		return a <= b
	case Greater:
		return a > b
	case GreaterEq:
		return a >= b
	}
	return false
}

// JoinableRange implements Condition. The open end runs to the int64
// extreme. A strict comparison's range is empty at the extreme key itself,
// and only there: nothing is above MaxInt64 or below MinInt64. A sweep over
// ascending keys skips that one empty range.
func (q Inequality) JoinableRange(a Key) (Key, Key) {
	switch q.Op {
	case Less:
		if a == math.MaxInt64 {
			return a, a - 1
		}
		return a + 1, math.MaxInt64
	case LessEq:
		return a, math.MaxInt64
	case Greater:
		if a == math.MinInt64 {
			return a + 1, a
		}
		return math.MinInt64, a - 1
	case GreaterEq:
		return math.MinInt64, a
	}
	return 0, -1
}

// String implements fmt.Stringer.
func (q Inequality) String() string {
	return fmt.Sprintf("R1.A %s R2.A", q.Op)
}
