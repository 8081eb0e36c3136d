package routing

import (
	"nocsim/internal/alloc"
	"nocsim/internal/topo"
)

// DOR is deterministic dimension-order routing: packets exhaust the X
// dimension before moving in Y. DOR is deadlock-free without an escape
// channel, so all VCs are usable and requested obliviously at equal
// priority — this is the baseline that saturates all VCs of a congested
// link (Figure 2(a) of the paper).
type DOR struct{}

// NewDOR returns a dimension-order router.
func NewDOR() *DOR { return &DOR{} }

// UsesEscape implements Algorithm; DOR needs no escape VC.
func (*DOR) UsesEscape() bool { return false }

// Decide implements Algorithm: all VCs of the single dimension-order port
// at Low priority.
func (*DOR) Decide(ctx *Context) Decision {
	st := ctx.View.State()
	dec := Decision{Dir: dorOf(st.MinimalDirs(ctx.Dest))}
	dec.Pri[alloc.Low] = vcMask(0, st.VCs)
	return dec
}

// Route implements Algorithm.
func (a *DOR) Route(ctx *Context, reqs []Request) []Request {
	return appendRequests(reqs, a.Decide(ctx))
}

var _ Algorithm = (*DOR)(nil)

// selectByCounts implements the two-stage port comparison shared by the
// adaptive algorithms (Algorithm 1, step 2): the port with more primary
// credits wins; ties fall through to the secondary counts; remaining ties
// are broken randomly.
func selectByCounts(ctx *Context, dx, dy topo.Direction, prix, priy, secx, secy int) topo.Direction {
	switch {
	case prix > priy:
		return dx
	case prix < priy:
		return dy
	case secx > secy:
		return dx
	case secx < secy:
		return dy
	case ctx.Rand.Intn(2) == 0:
		return dx
	default:
		return dy
	}
}
