package routing

import "nocsim/internal/topo"

// XORDET is the static HoL-blocking-aware VC mapping of Peñaranda et al.
// (HPCC'14), applied as an overlay on a base routing algorithm, exactly as
// the paper's "+XORDET" configurations: the base algorithm selects the
// output port, XORDET determines the VC.
//
// Every destination maps to a fixed VC class computed by XOR-folding its
// mesh coordinates, so packets to different destination classes never share
// a VC and a congestion tree stays one VC thick (Figure 2(c)) — at the cost
// of restricted VC usage and thus lower buffer utilization.
type XORDET struct {
	base Algorithm
}

// NewXORDET wraps base with XORDET VC selection.
func NewXORDET(base Algorithm) *XORDET { return &XORDET{base: base} }

// Name implements Algorithm.
func (x *XORDET) Name() string { return x.base.Name() + "+xordet" }

// UsesEscape implements Algorithm, deferring to the base algorithm.
func (x *XORDET) UsesEscape() bool { return x.base.UsesEscape() }

// ConservativeRealloc implements Algorithm, deferring to the base.
func (x *XORDET) ConservativeRealloc() bool { return x.base.ConservativeRealloc() }

// Class returns the static VC class of dest on mesh m given nClasses
// usable VCs: the XOR of the destination coordinates folded modulo
// nClasses.
func Class(m topo.Mesh, dest, nClasses int) int {
	c := m.Coord(dest)
	return (c.X ^ c.Y) % nClasses
}

// Decide implements Algorithm: the base algorithm's port decision and
// escape request, with its adaptive VC requests replaced by the single
// statically assigned VC of the packet's destination class.
func (x *XORDET) Decide(ctx *Context) Decision {
	lo := adaptiveVCRange(x.base.UsesEscape())
	vc := lo + Class(ctx.Mesh, ctx.Dest, ctx.View.State().VCs-lo)
	return x.base.Decide(ctx).onlyVC(vc)
}

// Route implements Algorithm.
func (x *XORDET) Route(ctx *Context, reqs []Request) []Request {
	return appendRequests(reqs, x.Decide(ctx))
}

var _ Algorithm = (*XORDET)(nil)

func init() {
	for _, base := range []string{"dor", "oddeven", "dbar"} {
		base := base
		Register(base+"+xordet", func() Algorithm { return NewXORDET(MustNew(base)) })
	}
}
