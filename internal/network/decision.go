package network

import (
	"fmt"
	"math/bits"

	"nocsim/internal/flit"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// VCClass classifies the live state of an output virtual channel at the
// moment it is offered to or granted for a packet, with respect to that
// packet's destination. The classes mirror the paper's Section 3
// taxonomy: an idle VC starts a fresh flow, a footprint VC already
// carries packets to the same destination (joining it extends the
// congestion tree harmlessly), a busy VC carries packets to a different
// destination (joining it couples unrelated flows — the HoL-blocking
// case Footprint regulates away), and the escape VC is the Duato
// deadlock-free fallback.
type VCClass uint8

const (
	// VCClassIdle is an unoccupied VC: unallocated with a fully drained
	// downstream buffer.
	VCClassIdle VCClass = iota
	// VCClassFootprint is a VC whose downstream buffer currently holds
	// packets to the same destination as the requester.
	VCClassFootprint
	// VCClassBusy is an occupied VC owned by a different destination.
	VCClassBusy
	// VCClassEscape is the Duato escape VC (VC 0 of a network port under
	// an escape-using algorithm), regardless of occupancy.
	VCClassEscape

	// numVCClasses is the cardinality sentinel (not an enum member; the
	// num* prefix exempts it from noclint's exhaustive rule).
	numVCClasses
)

// NumVCClasses is the number of VC classes, int-typed for sizing arrays
// indexed by VCClass.
const NumVCClasses = int(numVCClasses)

// String implements fmt.Stringer.
func (c VCClass) String() string {
	switch c {
	case VCClassIdle:
		return "idle"
	case VCClassFootprint:
		return "footprint"
	case VCClassBusy:
		return "busy"
	case VCClassEscape:
		return "escape"
	default:
		panic(fmt.Sprintf("network: unknown VCClass %d", uint8(c)))
	}
}

// Decision summarizes one routing decision — the first route computation
// for a packet at a router — as the adaptiveness it actually exercised:
// one port (every decision offers VCs on one minimal port, which
// routing's property tests hold) and how many VCs, against the
// minimal-path ceilings it could have offered. The router (not the
// routing algorithm; the routepurity lint keeps Decide side-effect free)
// derives it from the routing.Decision returned and reports it through
// DecisionSink.OnRouteDecision. Ejection decisions (dest == this node)
// are not reported: they exercise no routing freedom.
type Decision struct {
	// MinimalPorts is the number of productive output ports on minimal
	// paths toward the destination (1 when aligned in a dimension, else
	// 2) — the Eq-1 per-hop port ceiling for a fully adaptive algorithm.
	MinimalPorts int
	// AdmissibleVCs is the static per-hop VC ceiling: adaptive VCs per
	// port times MinimalPorts.
	AdmissibleVCs int
	// OfferedVCs is the number of adaptive (non-escape) VC requests the
	// algorithm actually emitted. OfferedVCs/AdmissibleVCs is the
	// per-decision exercised VC adaptiveness.
	OfferedVCs int
	// FootprintVCs and IdleVCs classify the offered adaptive VCs by live
	// state at decision time; the remainder (OfferedVCs - FootprintVCs -
	// IdleVCs) were busy.
	FootprintVCs int
	IdleVCs      int
	// EscapeRequested reports whether the request set included the
	// escape VC (the Duato fallback was on the table this decision).
	EscapeRequested bool
}

// emitDecision builds and reports, stamped now, the Decision record for a
// packet's first route computation at this router, from the routing
// decision dec. Called only when Sinks.Decisions is attached and the
// packet is not at its destination.
func (r *Router) emitDecision(now int64, dec *routing.Decision, p *flit.Packet) {
	_, hasX, _, hasY := r.st.MinimalDirs(p.Dest)
	d := Decision{EscapeRequested: dec.HasEsc}
	if hasX {
		d.MinimalPorts++
	}
	if hasY {
		d.MinimalPorts++
	}
	d.AdmissibleVCs = d.MinimalPorts * (r.vcs - r.st.Lo)
	if offered := dec.VCMask(); offered != 0 {
		d.OfferedVCs = bits.OnesCount32(offered)
		idle := offered & r.st.Idle[dec.Dir]
		d.IdleVCs = bits.OnesCount32(idle)
		d.FootprintVCs = bits.OnesCount32(offered &^ idle & r.st.OwnerMask(dec.Dir, p.Dest))
	}
	r.cfg.Sinks.Decisions.OnRouteDecision(now, int(r.id), p, d)
}

// classifyVC returns the VCClass of output VC (d, vc) for a packet to
// dest, read against the VC's pre-grant state. Local-port grants
// (ejection) are classified by occupancy only — the escape class applies
// to network ports.
func (r *Router) classifyVC(d topo.Direction, vc, dest int) VCClass {
	if vc == 0 && d != topo.Local && r.st.Lo == 1 {
		return VCClassEscape
	}
	if r.st.Idle[d]>>uint(vc)&1 != 0 {
		return VCClassIdle
	}
	if r.st.OwnerMask(d, dest)>>uint(vc)&1 != 0 {
		return VCClassFootprint
	}
	return VCClassBusy
}
