package sim

import (
	"nocsim/internal/flit"
	"nocsim/internal/stats"
	"nocsim/internal/topo"
)

// metrics implements network.BlockedSink, aggregating the blocking
// statistics behind Figures 10(b) and 10(c). It has no on/off switch: the
// simulation attaches it to the fabric for the measurement window, and
// nothing reaches it outside.
type metrics struct {
	// blockEvents counts VC-allocation failures of routed head packets.
	blockEvents int64
	// sameDestSum/sameDestObs aggregate, per failure, the fraction of
	// busy VCs at the requested port owned by the blocked packet's own
	// destination (a per-event congestion-composition diagnostic).
	sameDestSum float64
	sameDestObs int64
}

// OnVCAllocFailure implements network.BlockedSink.
func (m *metrics) OnVCAllocFailure(now int64, node int, p *flit.Packet, out topo.Direction, footprintVCs, busyVCs int, waited int64) {
	m.blockEvents++
	if busyVCs > 0 {
		m.sameDestSum += float64(footprintVCs) / float64(busyVCs)
		m.sameDestObs++
	}
}

// purity returns the paper's purity of blocking (Figure 10b): at each
// VC-allocation failure, the ratio of footprint VCs (busy VCs owned by
// the blocked packet's destination) to all busy VCs at the requested
// port, averaged over blocking events. Higher means blocking is caused by
// the packet's own flow rather than HoL interference.
func (m *metrics) purity() float64 {
	return stats.Ratio(m.sameDestSum, float64(m.sameDestObs))
}

// holDegree returns the degree of HoL blocking: impurity × number of
// blocking events (Figure 10c), normalized per measured packet by the
// caller.
func (m *metrics) holDegree() float64 {
	return (1 - m.purity()) * float64(m.blockEvents)
}
