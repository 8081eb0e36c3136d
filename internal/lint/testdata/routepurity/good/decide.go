// The mask-form decision function: Decide reads its context, fills a
// local Decision — array element writes included — and returns it by
// value; Route is the same decision expanded into the caller's list.
// Nothing here is caller-visible, so noclint must stay silent.
package fixture

// Ctx is the decision's input.
type Ctx struct {
	Dest int
	VCs  int
}

// Decision is the mask-form result, returned by value.
type Decision struct {
	Dir int
	Pri [6]uint32
}

// MaskAlg requests every VC of one port at one priority.
type MaskAlg struct{}

// Decide writes only the Decision it returns.
func (MaskAlg) Decide(ctx *Ctx) Decision {
	dec := Decision{Dir: ctx.Dest % 4}
	dec.Pri[2] = uint32(1)<<uint(ctx.VCs) - 1
	dec.Pri[2] &^= 1
	return dec
}

// Route expands Decide's masks into the request list it was handed.
func (a MaskAlg) Route(ctx *Ctx, reqs []int) []int {
	return expand(reqs, a.Decide(ctx))
}

func expand(reqs []int, d Decision) []int {
	for _, m := range d.Pri {
		for ; m != 0; m &= m - 1 {
			reqs = append(reqs, d.Dir)
		}
	}
	return reqs
}
