package routing

import (
	"nocsim/internal/alloc"
	"nocsim/internal/topo"
)

// DBAR is the fully-adaptive baseline of the paper, modelled on
// "DBAR: an efficient routing algorithm to support multiple concurrent
// applications in networks-on-chip" (Ma, Enright Jerger, Wang; ISCA'11).
//
// DBAR routes minimally and fully adaptively under Duato's theory (VC 0 is
// a dimension-order escape channel) and selects the output port using
// destination-sliced congestion information from the next-hop router in
// addition to local free-VC counts. As in the paper's configuration, a
// port is predicted congested when fewer than half of its VCs are idle.
// VC selection is oblivious: DBAR requests every adaptive VC at equal
// priority, which is precisely the behaviour Footprint regulates.
type DBAR struct{}

// NewDBAR returns a DBAR router.
func NewDBAR() *DBAR { return &DBAR{} }

// Name implements Algorithm.
func (*DBAR) Name() string { return "dbar" }

// UsesEscape implements Algorithm; DBAR relies on Duato's theory.
func (*DBAR) UsesEscape() bool { return true }

// ConservativeRealloc implements Algorithm: Duato-based algorithms cannot
// reallocate a VC before the tail flit's credit returns (Section 4.2.1).
func (*DBAR) ConservativeRealloc() bool { return true }

// Route implements Algorithm.
func (*DBAR) Route(ctx *Context, reqs []Request) []Request {
	m, v := ctx.Mesh, ctx.View
	dx, hasX, dy, hasY := m.MinimalDirs(ctx.Cur, ctx.Dest)
	esc := dorDir(m, ctx.Cur, ctx.Dest)

	var d topo.Direction
	switch {
	case hasX && hasY:
		half := (v.VCs() + 1) / 2
		ix, iy := countIdle(v, dx, 1), countIdle(v, dy, 1)
		nx, ny := v.DownstreamIdle(dx, ctx.Dest), v.DownstreamIdle(dy, ctx.Dest)
		congX, congY := ix < half, iy < half
		switch {
		case congX != congY && congY:
			// Only Y congested locally: go X.
			d = dx
		case congX != congY && congX:
			d = dy
		default:
			// Neither (or both) congested locally: let the next-hop,
			// destination-sliced occupancy decide; local idles break ties.
			d = selectByCounts(ctx, dx, dy, nx, ny, ix, iy)
		}
	case hasX:
		d = dx
	default:
		d = dy
	}

	for vc := 1; vc < v.VCs(); vc++ {
		reqs = append(reqs, Request{Dir: d, VC: vc, Pri: alloc.Low})
	}
	reqs = append(reqs, Request{Dir: esc, VC: 0, Pri: alloc.Lowest})
	return reqs
}

var _ Algorithm = (*DBAR)(nil)

func init() {
	Register("dbar", func() Algorithm { return NewDBAR() })
}
