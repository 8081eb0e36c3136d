package routing

import "nocsim/internal/topo"

// VOQSW is the switch-level virtual output queueing of McKeown et al.
// (INFOCOM'96) as adapted to NoCs and cited in footnote 5 of the paper:
// virtual channels are statically partitioned by the output port the
// packet will take at the *next* router, so packets bound for different
// downstream directions never share a VC and cannot HoL-block each other
// across one hop.
//
// Like XORDET it is applied as an overlay: the base algorithm selects the
// output port; VOQSW selects the VC class. The next-hop output port is
// computed with dimension-order routing, which is exact for DOR bases and
// a deterministic approximation for adaptive bases. The paper evaluated
// VOQ_sw but omitted its results because XORDET dominated it; it is
// provided here for completeness.
type VOQSW struct {
	base Algorithm
}

// NewVOQSW wraps base with switch-VOQ VC selection.
func NewVOQSW(base Algorithm) *VOQSW { return &VOQSW{base: base} }

// Name implements Algorithm.
func (v *VOQSW) Name() string { return v.base.Name() + "+voqsw" }

// UsesEscape implements Algorithm, deferring to the base.
func (v *VOQSW) UsesEscape() bool { return v.base.UsesEscape() }

// ConservativeRealloc implements Algorithm, deferring to the base.
func (v *VOQSW) ConservativeRealloc() bool { return v.base.ConservativeRealloc() }

// nextHopClass returns the VC class for a packet leaving cur through out
// toward dest: the dimension-order output direction it will take at the
// next router (Local when the next router is the destination), folded
// onto nClasses.
func nextHopClass(m topo.Mesh, cur int, out topo.Direction, dest, nClasses int) int {
	next, ok := m.Neighbor(cur, out)
	if !ok {
		return 0
	}
	var class int
	if next == dest {
		class = int(topo.Local)
	} else {
		class = int(dorDir(m, next, dest))
	}
	return class % nClasses
}

// Decide implements Algorithm: the base algorithm's port decision and
// escape request, with its adaptive VC requests replaced by the VC of the
// next-hop-output class.
func (v *VOQSW) Decide(ctx *Context) Decision {
	dec := v.base.Decide(ctx)
	lo := adaptiveVCRange(v.base.UsesEscape())
	vc := lo + nextHopClass(ctx.Mesh, ctx.Cur, dec.Dir, ctx.Dest, ctx.View.State().VCs-lo)
	return dec.onlyVC(vc)
}

// Route implements Algorithm.
func (v *VOQSW) Route(ctx *Context, reqs []Request) []Request {
	return appendRequests(reqs, v.Decide(ctx))
}

var _ Algorithm = (*VOQSW)(nil)

func init() {
	for _, base := range []string{"dor", "oddeven", "dbar"} {
		base := base
		Register(base+"+voqsw", func() Algorithm { return NewVOQSW(MustNew(base)) })
	}
}
