package routing

import "nocsim/internal/alloc"

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

// UsesEscape implements Algorithm; DBAR relies on Duato's theory.
func (*DBAR) UsesEscape() bool { return true }

// Decide implements Algorithm.
func (*DBAR) Decide(ctx *Context) Decision {
	st := ctx.View.State()
	dx, hasX, dy, hasY := st.MinimalDirs(ctx.Dest)
	esc := dorOf(dx, hasX, dy, hasY)
	dec := Decision{Dir: esc, Esc: esc, HasEsc: true}
	if hasX && hasY {
		half := (st.VCs + 1) / 2
		ix, iy := st.IdleCount(dx, 1), st.IdleCount(dy, 1)
		congX, congY := ix < half, iy < half
		switch {
		case congX != congY && congY:
			// Only Y congested locally: go X.
			dec.Dir = dx
		case congX != congY && congX:
			dec.Dir = dy
		default:
			// Neither (or both) congested locally: let the next-hop,
			// destination-sliced occupancy decide; local idles break ties.
			nx, ny := ctx.View.DownstreamIdle(dx, ctx.Dest), ctx.View.DownstreamIdle(dy, ctx.Dest)
			dec.Dir = selectByCounts(ctx, dx, dy, nx, ny, ix, iy)
		}
	}
	dec.Pri[alloc.Low] = vcMask(1, st.VCs)
	return dec
}

// Route implements Algorithm.
func (a *DBAR) Route(ctx *Context, reqs []Request) []Request {
	return appendRequests(reqs, a.Decide(ctx))
}

var _ Algorithm = (*DBAR)(nil)
