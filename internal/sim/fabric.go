package sim

import (
	"math/rand"
	"slices"
	"sync"

	"nocsim/internal/network"
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
// simulations alive at once. It is not a sync.Pool, which hands out any
// item whatever its capacity and drops its items at every GC, and at
// random under the race detector.
var fabrics struct {
	sync.Mutex
	free []*fabric
}

// takeFabric returns a fabric to build a run of nodes nodes on: of the
// pooled fabrics, the one put back last among those that hold nodes
// nodes, else the one put back last (its arrays grow), else new memory.
// The pool is keyed by capacity, not by config: any run may take any
// fabric, and New keeps what is large enough.
func takeFabric(nodes int) *fabric {
	fabrics.Lock()
	defer fabrics.Unlock()
	n := len(fabrics.free)
	if n == 0 {
		return &fabric{hist: stats.NewHistogram(latencyBins), rng: rand.New(rand.NewSource(0)), nodes: nodes}
	}
	i := n - 1
	for j := i; j >= 0; j-- {
		if fabrics.free[j].nodes >= nodes {
			i = j
			break
		}
	}
	f := fabrics.free[i]
	fabrics.free = slices.Delete(fabrics.free, i, i+1)
	f.nodes = max(f.nodes, nodes)
	return f
}

// putFabric returns the fabric of a finished run to the pool.
func putFabric(f *fabric) {
	fabrics.Lock()
	fabrics.free = append(fabrics.free, f)
	fabrics.Unlock()
}
