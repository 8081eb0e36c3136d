package routing

import (
	"nocsim/internal/alloc"
	"nocsim/internal/topo"
)

// overlay is a static VC mapping applied to a base algorithm, as in the
// paper's "+XORDET" configurations: the base algorithm selects the output
// port and the escape request, the overlay replaces the base's adaptive
// VC requests with the one VC of the packet's class. Two class functions
// are provided:
//
//   - XORDET (Peñaranda et al., HPCC'14; Class): every destination maps to
//     a fixed class by XOR-folding its mesh coordinates, so packets to
//     different destination classes never share a VC and a congestion
//     tree stays one VC thick (Figure 2(c)), at the cost of restricted VC
//     usage and thus lower buffer utilization.
//   - VOQ_sw, the switch-level virtual output queueing of McKeown et al.
//     (INFOCOM'96) cited in footnote 5 (nextHopClass): the class is the
//     output port the packet will take at the next router, so packets
//     bound for different downstream directions cannot HoL-block each
//     other across one hop. The paper evaluated VOQ_sw but omitted its
//     results because XORDET dominated it.
//
// Either way the overlay routes on its base's ports, so it has its
// base's port adaptiveness.
type overlay struct {
	base  Algorithm
	voqsw bool // class by nextHopClass, else by Class
}

// UsesEscape implements Algorithm, deferring to the base algorithm.
func (o *overlay) UsesEscape() bool { return o.base.UsesEscape() }

// ConservativeRealloc implements Algorithm, deferring to the base.
func (o *overlay) ConservativeRealloc() bool { return o.base.ConservativeRealloc() }

// Class returns the XORDET VC class of dest on mesh m given nClasses
// usable VCs: the XOR of the destination coordinates folded modulo
// nClasses.
func Class(m topo.Mesh, dest, nClasses int) int {
	c := m.Coord(dest)
	return (c.X ^ c.Y) % nClasses
}

// nextHopClass returns the VOQ_sw VC class for a packet leaving cur
// through out toward dest: the dimension-order output direction it will
// take at the next router (Local when the next router is the
// destination), folded onto nClasses. Dimension order is exact for a DOR
// base and a deterministic approximation for adaptive bases.
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
// escape request, with its adaptive VC requests replaced by the single
// VC of the packet's class, at Low.
func (o *overlay) Decide(ctx *Context) Decision {
	dec := o.base.Decide(ctx)
	st := ctx.View.State()
	n := st.VCs - st.Lo
	class := Class(ctx.Mesh, ctx.Dest, n)
	if o.voqsw {
		class = nextHopClass(ctx.Mesh, ctx.Cur, dec.Dir, ctx.Dest, n)
	}
	dec.Pri = [alloc.Highest + 1]uint32{alloc.Low: 1 << uint(st.Lo+class)}
	return dec
}

// Route implements Algorithm.
func (o *overlay) Route(ctx *Context, reqs []Request) []Request {
	return appendRequests(reqs, o.Decide(ctx))
}

var _ Algorithm = (*overlay)(nil)
