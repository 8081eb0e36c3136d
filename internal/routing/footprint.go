package routing

import "nocsim/internal/alloc"

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
//     adaptive at Low; in between, the affinity ladder → idle VCs whose
//     footprint register names the destination (reclaim) at Highest,
//     occupied footprint VCs at Medium, the other idle VCs at High (at
//     Low once the destination has footprint VCs on the port), busy VCs
//     at Low. The escape VC is always requested at Lowest.
//
// The in-between ladder is not the paper's (idle at Highest, footprint at
// High, busy at Low): DESIGN.md, "Mechanism analysis", gives the
// paper-literal ladder, why it is inert under conservative reallocation,
// and the measurements behind this one.
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

// UsesEscape implements Algorithm; Footprint relies on Duato's theory.
func (*Footprint) UsesEscape() bool { return true }

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

// Decide implements Algorithm 1 of the paper.
func (f *Footprint) Decide(ctx *Context) Decision {
	st, dest := ctx.View.State(), ctx.Dest
	nVCs := st.VCs

	// STEP 1: legal output ports; the dimension-order one doubles as the
	// escape port, requested at the lowest priority whatever step 3 says.
	dx, hasX, dy, hasY := st.MinimalDirs(dest)
	esc := dorOf(dx, hasX, dy, hasY)
	dec := Decision{Dir: esc, Esc: esc, HasEsc: true}

	// STEP 2: the port with more idle VCs wins; ties fall to the port
	// with more footprint VCs; remaining ties break randomly.
	idle, fp := st.IdleCount(esc, 1), st.FootprintCount(esc, dest, 1)
	if hasX && hasY {
		iy, fy := st.IdleCount(dy, 1), st.FootprintCount(dy, dest, 1)
		if selectByCounts(ctx, dx, dy, idle, iy, fp, fy) == dy {
			dec.Dir, idle, fp = dy, iy, fy
		}
	}

	// STEP 3: VC requests by congestion state of the chosen port.
	d, adaptive := dec.Dir, vcMask(1, nVCs)
	switch {
	case f.MaxFootprintVCs > 0 && fp >= f.MaxFootprintVCs:
		// Future-work extension: once the destination owns
		// MaxFootprintVCs VCs of the port, confine its packets to them
		// regardless of load, giving the stronger isolation of Section
		// 4.2.5.
		dec.Pri[f.pri(alloc.High)] = st.OwnerBits(d, dest) & adaptive
	case idle >= f.threshold(nVCs):
		// No congestion: use all adaptive VCs; waiting on footprint
		// channels would only add latency.
		dec.Pri[alloc.Low] = adaptive
	case idle == 0 && fp != 0 && !f.DisableRegulation:
		// Saturated port: wait on the footprint channels only.
		dec.Pri[f.pri(alloc.High)] = st.OwnerBits(d, dest) & adaptive
	case idle == 0:
		// No footprint to follow: request all adaptive VCs.
		dec.Pri[alloc.Low] = adaptive
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
		idleM := st.Idle[d] & adaptive
		reclaim := idleM & st.RegOwnerBits(d, dest)
		own := st.OwnerBits(d, dest) & adaptive &^ idleM
		freshPri := f.pri(alloc.High)
		if fp > 0 {
			freshPri = alloc.Low
		}
		// |=, not =: with the ladder disabled several classes share Low.
		dec.Pri[alloc.Low] = adaptive &^ idleM &^ own
		dec.Pri[f.pri(alloc.Highest)] |= reclaim
		dec.Pri[freshPri] |= idleM &^ reclaim
		dec.Pri[f.pri(alloc.Medium)] |= own
	}
	return dec
}

// Route implements Algorithm.
func (f *Footprint) Route(ctx *Context, reqs []Request) []Request {
	return appendRequests(reqs, f.Decide(ctx))
}

var _ Algorithm = (*Footprint)(nil)
