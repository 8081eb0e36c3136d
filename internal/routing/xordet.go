package routing

import (
	"nocsim/internal/alloc"
	"nocsim/internal/topo"
)

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

// Route implements Algorithm: run the base algorithm for its port
// decision, then rewrite the adaptive VC requests to the single statically
// assigned VC of the packet's destination class. Escape requests pass
// through unchanged.
func (x *XORDET) Route(ctx *Context, reqs []Request) []Request {
	base := len(reqs)
	reqs = x.base.Route(ctx, reqs)

	nVCs := ctx.View.VCs()
	lo := adaptiveVCRange(x.base.UsesEscape())
	vc := lo + Class(ctx.Mesh, ctx.Dest, nVCs-lo)

	// Find the port the base algorithm chose for its adaptive requests
	// and the escape request (if any).
	var dir topo.Direction
	found := false
	escReq := Request{Pri: alloc.None}
	for _, r := range reqs[base:] {
		if x.base.UsesEscape() && r.VC == 0 && r.Pri == alloc.Lowest {
			escReq = r
			continue
		}
		if !found {
			dir, found = r.Dir, true
		}
	}
	reqs = reqs[:base]
	if found {
		reqs = append(reqs, Request{Dir: dir, VC: vc, Pri: alloc.Low})
	}
	if escReq.Pri != alloc.None {
		reqs = append(reqs, escReq)
	}
	return reqs
}

var _ Algorithm = (*XORDET)(nil)

func init() {
	for _, base := range []string{"dor", "oddeven", "dbar"} {
		base := base
		Register(base+"+xordet", func() Algorithm { return NewXORDET(MustNew(base)) })
	}
}
