package routing

import (
	"math/bits"

	"nocsim/internal/alloc"
	"nocsim/internal/topo"
)

// Footprint implements the paper's contribution (Algorithm 1): a minimal
// fully-adaptive routing algorithm under Duato's theory that regulates its
// own adaptiveness when the network is congested by making packets follow
// the "footprints" of earlier packets to the same destination.
//
// A footprint VC is a virtual channel currently occupied by packets headed
// to the same destination as the packet being routed. Footprint keeps the
// congestion tree slim by steering congested packets onto footprint VCs —
// forming virtual set-aside queues — instead of forking new branches, while
// uncongested packets keep full port and VC adaptiveness.
//
// The three steps of Algorithm 1:
//
//  1. determine the legal output ports (at most one per dimension, with
//     the dimension-order port doubling as the escape port) and classify
//     each port's adaptive VCs as idle, footprint, or busy;
//  2. pick the output port with more idle VCs, falling back to more
//     footprint VCs, falling back to a random choice;
//  3. translate the port's congestion state into prioritized VC requests:
//     uncongested (idle ≥ threshold) → all adaptive VCs at Low;
//     saturated (no idle) → footprint VCs at High if any, else all
//     adaptive at Low; in between → idle at Highest, footprint at High,
//     busy at Low. The escape VC is always requested at Lowest.
type Footprint struct {
	// Threshold is the idle-VC count at or above which the port is
	// treated as uncongested. Zero means the paper's default of half the
	// VCs per physical channel.
	Threshold int
	// DisablePriorities flattens the Highest/High/Low ladder of step 3 to
	// a single Low priority, for the ablation study; the footprint-vs-busy
	// distinction (which VCs get requested) is preserved.
	DisablePriorities bool
	// DisableRegulation removes the core mechanism for the ablation
	// study: at saturated ports the packet requests every adaptive VC
	// instead of waiting on its footprint VCs, degenerating Footprint
	// into a locally-informed fully-adaptive router.
	DisableRegulation bool
	// MaxFootprintVCs, when positive, caps how many VCs per port a
	// single destination may occupy: once a destination owns that many
	// VCs of a port, its packets only request those VCs (at any load),
	// isolating congested traffic to a bounded number of VCs. This is
	// the Section 4.2.5 / Section 5 future-work extension ("an upper
	// bound on the number of adaptive VCs can be set for Footprint VCs
	// to isolate congested traffic to a fixed number of VCs").
	MaxFootprintVCs int
}

// NewFootprint returns a Footprint router with the paper's parameters.
func NewFootprint() *Footprint { return &Footprint{} }

// Name implements Algorithm.
func (*Footprint) Name() string { return "footprint" }

// UsesEscape implements Algorithm; Footprint relies on Duato's theory.
func (*Footprint) UsesEscape() bool { return true }

// ConservativeRealloc implements Algorithm.
func (*Footprint) ConservativeRealloc() bool { return true }

// threshold returns the congestion threshold for a port with nVCs VCs.
func (f *Footprint) threshold(nVCs int) int {
	if f.Threshold > 0 {
		return f.Threshold
	}
	return nVCs / 2
}

// pri returns p, or Low when the priority ladder is disabled.
func (f *Footprint) pri(p alloc.Priority) alloc.Priority {
	if f.DisablePriorities {
		return alloc.Low
	}
	return p
}

// Route implements Algorithm 1 of the paper.
func (f *Footprint) Route(ctx *Context, reqs []Request) []Request {
	m, v := ctx.Mesh, ctx.View
	nVCs := v.VCs()

	// STEP 1: legal output ports and VC classification.
	dx, hasX, dy, hasY := m.MinimalDirs(ctx.Cur, ctx.Dest)
	esc := dorDir(m, ctx.Cur, ctx.Dest)

	var d topo.Direction
	switch {
	case hasX && hasY:
		// STEP 2: the port with more idle VCs wins; ties fall to the
		// port with more footprint VCs; remaining ties break randomly.
		ix, iy := countIdle(v, dx, 1), countIdle(v, dy, 1)
		fx, fy := countFootprint(v, dx, ctx.Dest, 1), countFootprint(v, dy, ctx.Dest, 1)
		d = selectByCounts(ctx, dx, dy, ix, iy, fx, fy)
	case hasX:
		d = dx
	default:
		d = dy
	}

	// STEP 3: VC requests by congestion state of the chosen port.
	idle := countIdle(v, d, 1)
	fp := countFootprint(v, d, ctx.Dest, 1)

	// Views exposing per-port bitmasks (the router's SoA state does) let
	// the per-VC classification below read three masks instead of making
	// three interface calls per VC; the scalar fallback is identical and
	// the property tests cross-check the two paths.
	bv, fast := v.(BitsView)

	// Future-work extension: once the destination owns MaxFootprintVCs
	// VCs of the port, confine its packets to them regardless of load,
	// giving the stronger isolation of Section 4.2.5.
	if f.MaxFootprintVCs > 0 && fp >= f.MaxFootprintVCs {
		reqs = f.appendFootprintVCs(reqs, v, bv, fast, d, ctx.Dest, nVCs)
		reqs = append(reqs, Request{Dir: esc, VC: 0, Pri: alloc.Lowest})
		return reqs
	}

	switch {
	case idle >= f.threshold(nVCs):
		// No congestion: use all adaptive VCs; waiting on footprint
		// channels would only add latency.
		for vc := 1; vc < nVCs; vc++ {
			reqs = append(reqs, Request{Dir: d, VC: vc, Pri: alloc.Low})
		}
	case idle == 0:
		if fp != 0 && !f.DisableRegulation {
			// Saturated port: wait on the footprint channels only.
			reqs = f.appendFootprintVCs(reqs, v, bv, fast, d, ctx.Dest, nVCs)
		} else {
			// No footprint to follow: request all adaptive VCs.
			for vc := 1; vc < nVCs; vc++ {
				reqs = append(reqs, Request{Dir: d, VC: vc, Pri: alloc.Low})
			}
		}
	default:
		// Between zero-load and saturation the ladder regulates which
		// packets take which VCs. A packet that already has footprints
		// on this port is likely heading into congestion: it reclaims
		// its own just-drained registered VCs first (Highest), waits on
		// its occupied footprint VCs next (Medium), and ranks fresh idle
		// VCs low so it does not widen its congestion tree. A packet
		// with no footprints keeps full adaptiveness: idle VCs at High.
		// Contests therefore resolve exactly as Section 3.3's example:
		// congested flows keep their channels, other flows get the idle
		// capacity.
		hasFP := fp > 0
		var idleM, regM, ownM uint32
		if fast {
			idleM = bv.IdleBits(d)
			regM = bv.RegOwnerBits(d, ctx.Dest)
			ownM = bv.OwnerBits(d, ctx.Dest)
		}
		for vc := 1; vc < nVCs; vc++ {
			var idleVC, regOwn, own bool
			if fast {
				bit := uint32(1) << uint(vc)
				idleVC, regOwn, own = idleM&bit != 0, regM&bit != 0, ownM&bit != 0
			} else {
				idleVC = v.VCIdle(d, vc)
				regOwn = v.VCRegOwner(d, vc) == ctx.Dest
				own = v.VCOwner(d, vc) == ctx.Dest
			}
			switch {
			case idleVC && regOwn:
				reqs = append(reqs, Request{Dir: d, VC: vc, Pri: f.pri(alloc.Highest)})
			case idleVC && !hasFP:
				reqs = append(reqs, Request{Dir: d, VC: vc, Pri: f.pri(alloc.High)})
			case idleVC:
				reqs = append(reqs, Request{Dir: d, VC: vc, Pri: alloc.Low})
			case own:
				reqs = append(reqs, Request{Dir: d, VC: vc, Pri: f.pri(alloc.Medium)})
			default:
				reqs = append(reqs, Request{Dir: d, VC: vc, Pri: alloc.Low})
			}
		}
	}

	// The escape channel is always requested at the lowest priority.
	reqs = append(reqs, Request{Dir: esc, VC: 0, Pri: alloc.Lowest})
	return reqs
}

// appendFootprintVCs requests every adaptive VC of port d owned by dest at
// High priority, in ascending VC order.
func (f *Footprint) appendFootprintVCs(reqs []Request, v View, bv BitsView, fast bool, d topo.Direction, dest, nVCs int) []Request {
	if fast {
		m := bv.OwnerBits(d, dest) &^ 1 // adaptive VCs only
		for ; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros32(m)
			reqs = append(reqs, Request{Dir: d, VC: vc, Pri: f.pri(alloc.High)})
		}
		return reqs
	}
	for vc := 1; vc < nVCs; vc++ {
		if v.VCOwner(d, vc) == dest {
			reqs = append(reqs, Request{Dir: d, VC: vc, Pri: f.pri(alloc.High)})
		}
	}
	return reqs
}

var _ Algorithm = (*Footprint)(nil)

func init() {
	Register("footprint", func() Algorithm { return NewFootprint() })
}
