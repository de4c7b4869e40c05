package join

import "fmt"

// Spec is a wire-encodable description of a Condition, used by the networked
// execution mode to ship the join predicate to remote workers. All condition
// types this package defines round-trip through a Spec.
type Spec struct {
	Kind string // "band" | "equi" | "inequality"
	Beta int64  // band
	Op   Op     // inequality
}

// SpecOf describes a condition; it fails for condition types defined outside
// this package (ship those as their own Spec kinds or pre-encode the keys).
func SpecOf(c Condition) (Spec, error) {
	switch v := c.(type) {
	case Band:
		return Spec{Kind: "band", Beta: v.Beta}, nil
	case Equi:
		return Spec{Kind: "equi"}, nil
	case Inequality:
		return Spec{Kind: "inequality", Op: v.Op}, nil
	}
	return Spec{}, fmt.Errorf("join: condition %T has no wire spec", c)
}

// Condition reconstructs the condition a Spec describes. It accepts only the
// Specs SpecOf writes: a field the kind does not use must be zero.
func (s Spec) Condition() (Condition, error) {
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
	default:
		return nil, fmt.Errorf("join: spec kind %q unknown", s.Kind)
	}
	if unused != (Spec{}) {
		return nil, fmt.Errorf("join: %s spec sets a field its kind does not use", s.Kind)
	}
	return c, nil
}
