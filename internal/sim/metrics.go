package sim

import (
	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/stats"
	"nocsim/internal/topo"
)

// metrics implements router.BlockedSink and periodic network sampling,
// aggregating the blocking statistics behind Figures 10(b) and 10(c). It
// has no on/off switch: the simulation attaches it to the fabric for the
// measurement window and samples it there, and nothing reaches it outside.
type metrics struct {
	// blockEvents counts VC-allocation failures of routed head packets.
	blockEvents int64
	// sameDestSum/sameDestObs aggregate, per failure, the fraction of
	// busy VCs at the requested port owned by the blocked packet's own
	// destination (a per-event congestion-composition diagnostic).
	sameDestSum float64
	sameDestObs int64

	// VC organization purity (the paper's "purity of blocking",
	// Figure 10b): sampled periodically over all occupied input VCs, the
	// fraction whose buffered packets all share one destination. Pure
	// VCs are footprint chains that only block their own flow; impure
	// VCs are HoL blocking.
	pureVCs     int64
	occupiedVCs int64
}

// samplePeriod is the cycle interval of purity sampling.
const samplePeriod = 16

// OnVCAllocFailure implements router.BlockedSink.
func (m *metrics) OnVCAllocFailure(now int64, node int, p *flit.Packet, out topo.Direction, footprintVCs, busyVCs int, waited int64) {
	m.blockEvents++
	if busyVCs > 0 {
		m.sameDestSum += float64(footprintVCs) / float64(busyVCs)
		m.sameDestObs++
	}
}

// sample scans the fabric's input buffers for VC organization purity.
func (m *metrics) sample(net *network.Network) {
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		for d := topo.East; d <= topo.Local; d++ {
			for v := 0; v < r.VCs(); v++ {
				occupied, pure := r.InputVCPurity(d, v)
				if !occupied {
					continue
				}
				m.occupiedVCs++
				if pure {
					m.pureVCs++
				}
			}
		}
	}
}

// reset clears the counters (called at the start of measurement).
func (m *metrics) reset() {
	m.blockEvents = 0
	m.sameDestSum = 0
	m.sameDestObs = 0
	m.pureVCs = 0
	m.occupiedVCs = 0
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

// bufferPurity is a secondary diagnostic: the fraction of occupied input
// VC buffers whose packets all share one destination (destination
// organization of the buffer space).
func (m *metrics) bufferPurity() float64 {
	return stats.Ratio(float64(m.pureVCs), float64(m.occupiedVCs))
}
