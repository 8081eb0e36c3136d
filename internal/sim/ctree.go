package sim

import (
	"nocsim/internal/network"
	"nocsim/internal/topo"
)

// CongestionTree describes the congestion tree rooted at one destination
// at a moment in time, in the paper's terms: the number of branches
// (inter-router links carrying blocked traffic to the destination) and
// their total thickness (the number of VCs participating). Section 2's
// Figure 2 compares these across routing algorithms.
type CongestionTree struct {
	Dest int
	// Links is the number of distinct inter-router links with at least
	// one VC occupied by traffic to Dest.
	Links int
	// VCs is the total number of input VCs holding traffic to Dest —
	// the summed branch thickness.
	VCs int
	// MaxThickness is the largest number of VCs any single link
	// contributes.
	MaxThickness int
}

// AnalyzeCongestionTree inspects the fabric's input buffers and returns
// the congestion tree of dest. A VC participates when it currently
// buffers traffic whose head packet is destined to dest. Injection and
// ejection links are excluded: the tree is made of network links.
func AnalyzeCongestionTree(net *network.Network, dest int) CongestionTree {
	ct := CongestionTree{Dest: dest}
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		for d := topo.East; d <= topo.South; d++ {
			linkVCs := 0
			for v := 0; v < r.VCs(); v++ {
				if iv := r.InputVCSnapshot(d, v); iv.Buffered > 0 && iv.PacketDest == dest {
					linkVCs++
				}
			}
			if linkVCs > 0 {
				ct.Links++
				ct.VCs += linkVCs
				if linkVCs > ct.MaxThickness {
					ct.MaxThickness = linkVCs
				}
			}
		}
	}
	return ct
}

// AverageTree is a congestion tree time-average over repeated snapshots.
type AverageTree struct {
	Dest         int
	Links        float64
	VCs          float64
	MaxThickness float64
	Samples      int
}

// TreeSampler accumulates congestion-tree snapshots for a destination.
type TreeSampler struct {
	dest    int
	sumL    int
	sumV    int
	sumT    int
	samples int
}

// NewTreeSampler returns a sampler for dest.
func NewTreeSampler(dest int) *TreeSampler { return &TreeSampler{dest: dest} }

// Sample records the current congestion tree of the fabric.
func (t *TreeSampler) Sample(net *network.Network) {
	ct := AnalyzeCongestionTree(net, t.dest)
	t.sumL += ct.Links
	t.sumV += ct.VCs
	t.sumT += ct.MaxThickness
	t.samples++
}

// Average returns the time-averaged tree.
func (t *TreeSampler) Average() AverageTree {
	if t.samples == 0 {
		return AverageTree{Dest: t.dest}
	}
	n := float64(t.samples)
	return AverageTree{
		Dest:         t.dest,
		Links:        float64(t.sumL) / n,
		VCs:          float64(t.sumV) / n,
		MaxThickness: float64(t.sumT) / n,
		Samples:      t.samples,
	}
}
