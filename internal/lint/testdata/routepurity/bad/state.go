// A Decide that reads its router's state through a method of the state
// itself, as the algorithms do with routing.State — and the method keeps
// a tally in the state it was supposed to only read. The write is not in
// Decide's body but one same-package method call away; noclint must
// follow the call and flag it under the Decide root.
package fixture

// State is the plain-data router state a decision reads.
type State struct {
	Idle  [5]uint32
	Reads int
}

// IdleCount answers from the masks, and counts how often it was asked.
func (s *State) IdleCount(d int) int {
	s.Reads++
	n := 0
	for m := s.Idle[d]; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// StateCtx is the decision's input.
type StateCtx struct {
	State *State
}

// CountingAlg picks the port with more idle VCs.
type CountingAlg struct{}

// Decide itself writes nothing but its result.
func (CountingAlg) Decide(ctx *StateCtx) Decision {
	st := ctx.State
	dec := Decision{Dir: 0}
	if st.IdleCount(1) > st.IdleCount(0) {
		dec.Dir = 1
	}
	return dec
}
