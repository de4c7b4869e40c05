package join

import "fmt"

// Spec is a wire-encodable description of a Condition, used by the networked
// execution mode to ship the join predicate to remote workers. All condition
// types this package defines round-trip through a Spec.
type Spec struct {
	Kind   string // "band" | "equi" | "inequality" | "shifted"
	Beta   int64  // band
	Op     Op     // inequality
	Scale  int64  // shifted
	Offset int64  // shifted
	Inner  *Spec  // shifted
}

// MaxSpecDepth bounds how many Specs one chain of Shifted wrappers may nest,
// the innermost condition included. A Spec arrives from the network, and
// every walk of it — decode, Condition, each JoinableRange call — recurses
// once per level; the conditions of this library nest at most two deep.
const MaxSpecDepth = 8

var errTooDeep = fmt.Errorf("join: spec nests deeper than %d levels", MaxSpecDepth)

// SpecOf describes a condition; it fails for condition types defined outside
// this package (ship those as their own Spec kinds or pre-encode the keys)
// and for Shifted chains deeper than MaxSpecDepth.
func SpecOf(c Condition) (Spec, error) { return specOf(c, 1) }

func specOf(c Condition, depth int) (Spec, error) {
	if depth > MaxSpecDepth {
		return Spec{}, errTooDeep
	}
	switch v := c.(type) {
	case Band:
		return Spec{Kind: "band", Beta: v.Beta}, nil
	case Equi:
		return Spec{Kind: "equi"}, nil
	case Inequality:
		return Spec{Kind: "inequality", Op: v.Op}, nil
	case Shifted:
		inner, err := specOf(v.Inner, depth+1)
		if err != nil {
			return Spec{}, err
		}
		return Spec{Kind: "shifted", Scale: v.Scale, Offset: v.Offset, Inner: &inner}, nil
	}
	return Spec{}, fmt.Errorf("join: condition %T has no wire spec", c)
}

// Condition reconstructs the condition a Spec describes. It accepts only the
// Specs SpecOf writes: a field the kind does not use must be zero, and the
// nesting must stay within MaxSpecDepth.
func (s Spec) Condition() (Condition, error) { return s.condition(1) }

func (s Spec) condition(depth int) (Condition, error) {
	if depth > MaxSpecDepth {
		return nil, errTooDeep
	}
	unused := s
	unused.Kind = ""
	var c Condition
	switch s.Kind {
	case "band":
		if s.Beta < 0 {
			return nil, fmt.Errorf("join: spec band beta %d < 0", s.Beta)
		}
		unused.Beta, c = 0, Band{Beta: s.Beta}
	case "equi":
		c = Equi{}
	case "inequality":
		if s.Op < Less || s.Op > GreaterEq {
			return nil, fmt.Errorf("join: spec inequality op %d unknown", s.Op)
		}
		unused.Op, c = 0, Inequality{Op: s.Op}
	case "shifted":
		if s.Inner == nil {
			return nil, fmt.Errorf("join: shifted spec without inner condition")
		}
		inner, err := s.Inner.condition(depth + 1)
		if err != nil {
			return nil, err
		}
		unused.Scale, unused.Offset, unused.Inner = 0, 0, nil
		c = Shifted{Inner: inner, Scale: s.Scale, Offset: s.Offset}
	default:
		return nil, fmt.Errorf("join: spec kind %q unknown", s.Kind)
	}
	if unused != (Spec{}) {
		return nil, fmt.Errorf("join: %s spec sets a field its kind does not use", s.Kind)
	}
	return c, nil
}
