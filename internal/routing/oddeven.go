package routing

import (
	"nocsim/internal/alloc"
	"nocsim/internal/topo"
)

// OddEven is Chiu's odd-even turn model (IEEE TPDS 2000): a partially
// adaptive, minimal routing algorithm that is deadlock-free without
// virtual-channel escape paths by forbidding
//
//   - EN and ES turns (eastbound packets turning north/south) at even
//     columns, and
//   - NW and SW turns (packets turning west) at odd columns.
//
// As configured in the paper's evaluation, the number of idle VCs selects
// among the allowed output ports. VCs are requested obliviously.
type OddEven struct{}

// NewOddEven returns an odd-even turn model router.
func NewOddEven() *OddEven { return &OddEven{} }

// UsesEscape implements Algorithm; the turn model needs no escape VC.
func (*OddEven) UsesEscape() bool { return false }

// allowedDirs returns the minimal directions the odd-even turn model
// permits from cur toward dest for a packet that arrived from inDir.
// At least one direction is always returned for cur != dest.
func (*OddEven) allowedDirs(m topo.Mesh, cur, dest int, inDir topo.Direction) (dirs [2]topo.Direction, n int) {
	cc, dc := m.Coord(cur), m.Coord(dest)
	e0 := dc.X - cc.X
	e1 := dc.Y - cc.Y
	var ns topo.Direction
	if e1 > 0 {
		ns = topo.South
	} else {
		ns = topo.North
	}
	switch {
	case e0 == 0:
		// Same column: head straight for the destination row.
		dirs[0], n = ns, 1
	case e0 > 0:
		// Destination is east.
		if e1 == 0 {
			dirs[0], n = topo.East, 1
			return dirs, n
		}
		// Turning off the east heading (EN/ES) is only legal at odd
		// columns; a packet not currently moving east (injected here or
		// moving vertically) is not turning and may always go vertical.
		if cc.X%2 == 1 || inDir != topo.West {
			dirs[n] = ns
			n++
		}
		// Continuing east is legal unless the destination column is even
		// and adjacent, which would force an illegal EN/ES turn there.
		if dc.X%2 == 1 || e0 != 1 {
			dirs[n] = topo.East
			n++
		}
	default:
		// Destination is west. West is always legal (WN/WS turns are
		// unrestricted); vertical moves are only legal at even columns
		// because the later turn into west (NW/SW) is illegal at odd
		// columns.
		dirs[0], n = topo.West, 1
		if e1 != 0 && cc.X%2 == 0 {
			dirs[n] = ns
			n++
		}
	}
	if n == 0 {
		// Unreachable for minimal odd-even routing; guard anyway.
		dirs[0], n = dorDir(m, cur, dest), 1
	}
	return dirs, n
}

// Decide implements Algorithm: pick the allowed port with more idle VCs
// (random tie-break) and request all its VCs at Low priority.
func (oe *OddEven) Decide(ctx *Context) Decision {
	dirs, n := oe.allowedDirs(ctx.Mesh, ctx.Cur, ctx.Dest, ctx.InDir)
	st := ctx.View.State()
	dec := Decision{Dir: dirs[0]}
	if n > 1 {
		i0 := st.IdleCount(dirs[0], 0)
		i1 := st.IdleCount(dirs[1], 0)
		dec.Dir = selectByCounts(ctx, dirs[0], dirs[1], i0, i1, 0, 0)
	}
	dec.Pri[alloc.Low] = vcMask(0, st.VCs)
	return dec
}

// Route implements Algorithm.
func (oe *OddEven) Route(ctx *Context, reqs []Request) []Request {
	return appendRequests(reqs, oe.Decide(ctx))
}

var _ Algorithm = (*OddEven)(nil)
