package sim

import (
	"math/rand"

	"nocsim/internal/network"
	"nocsim/internal/reuse"
	"nocsim/internal/stats"
)

// latencyBins is the exact range of a run's latency histogram, in cycles.
const latencyBins = 4096

// fabric is the memory a run is built on that a later run can be built on
// again: the network's (network.Memory: node, channel and list arrays,
// slabs, arena chunks), the latency histogram and the random source. New
// clears what it uses of it, so a run on a finished run's fabric is the
// run on a new one (DESIGN.md, "Recycling").
type fabric struct {
	net  network.Memory
	hist *stats.Histogram
	rng  *rand.Rand
	// nodes is the largest mesh built on the fabric: its arrays hold that
	// many nodes.
	nodes int
}

// fabrics holds the fabrics of finished runs whose Network was never
// taken, for New to build on. It is shared by every goroutine, sim.Map's
// workers included, and holds at most as many fabrics as there were
// simulations alive at once.
var fabrics reuse.Pool[fabric]

// takeFabric returns a fabric to build a run of nodes nodes on: of the
// pooled fabrics, the one put back last among those that hold nodes
// nodes, else the one put back last (its arrays grow), else new memory.
// The pool is keyed by capacity, not by config: any run may take any
// fabric, and New keeps what is large enough.
func takeFabric(nodes int) *fabric {
	f := fabrics.Take(func(f *fabric) bool { return f.nodes >= nodes })
	if f == nil {
		return &fabric{hist: stats.NewHistogram(latencyBins), rng: rand.New(rand.NewSource(0)), nodes: nodes}
	}
	f.nodes = max(f.nodes, nodes)
	return f
}
