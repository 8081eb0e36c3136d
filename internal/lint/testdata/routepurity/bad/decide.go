// A Decide that leaves a note for its caller in the context it was
// handed. The router reuses one context for every decision and treats
// Decide as a pure function of it; a write through ctx is caller-visible
// state the decision keeps. noclint must flag it, under the Decide root.
package fixture

// Ctx is the decision's input.
type Ctx struct {
	Dest    int
	LastDir int
}

// Decision is the mask-form result, returned by value.
type Decision struct {
	Dir int
	Pri [6]uint32
}

// StickyAlg remembers its last port in the context.
type StickyAlg struct{}

// Decide fills a local Decision (legal) and writes through ctx (not).
func (StickyAlg) Decide(ctx *Ctx) Decision {
	var dec Decision
	dec.Dir = ctx.Dest % 4
	dec.Pri[2] = 0xe
	ctx.LastDir = dec.Dir
	return dec
}
