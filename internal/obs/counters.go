package obs

import (
	"fmt"
	"io"

	"nocsim/internal/network"
	"nocsim/internal/topo"
)

// PortCounters is one port's slice of a RouterSample. The counters are
// cumulative since network construction; consumers diff consecutive
// samples of the same (node, port) for per-interval rates.
type PortCounters struct {
	// BufferOcc is the instantaneous flit count buffered at the input
	// port (a gauge, not cumulative).
	BufferOcc int
	// CreditStalls is the cumulative VC-cycles the output port stalled
	// active upstream VCs for lack of downstream credits.
	CreditStalls int64
	// XbarGrants is the cumulative crossbar grants won by the output
	// port.
	XbarGrants int64
	// LinkFlits is the cumulative flits sent through the output port.
	LinkFlits int64
}

// RouterSample is one router's counters at one sample point.
type RouterSample struct {
	Cycle int64
	Node  int
	// VCAllocFails is the router's cumulative VC-allocation failure
	// count (head packets denied per cycle).
	VCAllocFails int64
	Ports        [topo.NumPorts]PortCounters
}

// DefaultSampleRows bounds the sampler's memory: at an 8×8 mesh this is
// ~1500 sample points per router.
const DefaultSampleRows = 100000

// Sampler collects per-router/per-port time-series counters on a fixed
// cycle period. Construct with NewSampler; the Collector drives Sample.
type Sampler struct {
	period  int64
	samples []RouterSample
	// dropped counts samples discarded after the row bound was reached.
	dropped int64
}

// NewSampler returns a sampler recording every period cycles, retaining
// at most DefaultSampleRows router-samples.
func NewSampler(period int64) *Sampler {
	if period < 1 {
		period = 1
	}
	return &Sampler{period: period}
}

// Period returns the sampling period in cycles.
func (s *Sampler) Period() int64 { return s.period }

// Dropped returns the number of router-samples discarded after the row
// bound was exhausted (oldest samples are kept; sampling stops).
func (s *Sampler) Dropped() int64 { return s.dropped }

// Samples returns the collected rows, oldest first.
func (s *Sampler) Samples() []RouterSample { return s.samples }

// Sample records every router's counters at cycle now.
func (s *Sampler) Sample(now int64, net *network.Network) {
	for id := 0; id < net.Nodes(); id++ {
		if len(s.samples) >= DefaultSampleRows {
			s.dropped++
			continue
		}
		r := net.Router(id)
		rs := RouterSample{Cycle: now, Node: id, VCAllocFails: r.VCAllocFailures()}
		for d := topo.East; d <= topo.Local; d++ {
			occ := 0
			for v := 0; v < r.VCs(); v++ {
				occ += r.InputVCSnapshot(d, v).Buffered
			}
			rs.Ports[d] = PortCounters{
				BufferOcc:    occ,
				CreditStalls: r.CreditStalls(d),
				XbarGrants:   r.CrossbarGrants(d),
				LinkFlits:    r.OutputFlits(d),
			}
		}
		s.samples = append(s.samples, rs)
	}
}

// WriteCSV writes the time series as one row per (cycle, node, port):
//
//	cycle,node,port,buffer_occ,credit_stalls,xbar_grants,link_flits,vc_alloc_fails
//
// The counter columns are cumulative; vc_alloc_fails is per-router and
// repeated on each of the router's port rows.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "cycle,node,port,buffer_occ,credit_stalls,xbar_grants,link_flits,vc_alloc_fails"); err != nil {
		return err
	}
	for _, rs := range s.samples {
		for d := topo.East; d <= topo.Local; d++ {
			pc := rs.Ports[d]
			if _, err := fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d,%d\n",
				rs.Cycle, rs.Node, d, pc.BufferOcc, pc.CreditStalls, pc.XbarGrants, pc.LinkFlits, rs.VCAllocFails); err != nil {
				return err
			}
		}
	}
	return nil
}
