package router

import (
	"nocsim/internal/alloc"
	"nocsim/internal/flit"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// slab is the backing slice of one element type from which nodes cut
// their arrays. cut hands out consecutive pieces with cap == len, so no
// node's append (a router's vaReqs growing, say) can reach a neighbour's
// elements.
type slab[T any] []T

func (s *slab[T]) cut(n int) []T {
	c := (*s)[:n:n]
	*s = (*s)[n:]
	return c
}

// Initial capacities of the lists that may grow past them: a router's VC
// requests and grants, an endpoint's source queue. Each grows privately
// on its first append past its cut.
const (
	vaGrants = 8
	queueCap = 4
)

func vaReqCap(vcs int) int { return 2 * (vcs + 1) } // two heads' requests

// slabs holds one slab per element type of the per-node arrays, sized by
// newSlabs exactly for the routers and endpoints about to cut from them
// (DESIGN.md, "Construction").
type slabs struct {
	u8     slab[uint8]
	dirs   slab[topo.Direction]
	i32    slab[int32]
	i64    slab[int64]
	bools  slab[bool]
	decs   slab[routing.Decision]
	flits  slab[*flit.Flit]
	reqs   slab[alloc.VCRequest]
	grants slab[alloc.Grant]
	index  slab[uint32]
	ints   slab[int]
	ejBufs slab[[]*flit.Flit]
	queue  slab[*flit.Packet]
}

// newSlabs sizes the slabs for routers routers of cfg's shape and
// endpoints endpoints of its VC count and buffer depth. Router.init and
// Endpoint.init make the cuts these sizes add up.
func newSlabs(cfg Config, routers, endpoints int) slabs {
	v, depth := cfg.VCs, cfg.BufDepth
	n := topo.NumPorts * v
	var regs, index int
	if routers > 0 {
		regs, index = routing.StateLen(cfg.Mesh, v, cfg.Alg)
	}
	return slabs{
		u8:     make([]uint8, routers*4*n), // inState, vaHeads, the allocator's two priority arrays
		dirs:   make([]topo.Direction, routers*n),
		i32:    make([]int32, routers*(5*n+6*n+regs)), // five per-VC arrays, the allocator's six, owner registers
		i64:    make([]int64, routers*n),
		bools:  make([]bool, routers*3*n+endpoints*v),
		decs:   make([]routing.Decision, routers*n),
		flits:  make([]*flit.Flit, (routers*n+endpoints*v)*depth),
		reqs:   make([]alloc.VCRequest, routers*vaReqCap(v)),
		grants: make([]alloc.Grant, routers*vaGrants),
		index:  make([]uint32, routers*index),
		ints:   make([]int, endpoints*v),
		ejBufs: make([][]*flit.Flit, endpoints*v),
		queue:  make([]*flit.Packet, endpoints*queueCap),
	}
}
