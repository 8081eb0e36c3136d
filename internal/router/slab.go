package router

import (
	"nocsim/internal/alloc"
	"nocsim/internal/flit"
	"nocsim/internal/reuse"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// slab is the backing slice of one element type from which nodes cut
// their arrays. cut hands out consecutive pieces with cap == len, so no
// node's append (into an endpoint's ejection buffer, say) can reach a
// neighbour's elements.
type slab[T any] []T

func (s *slab[T]) cut(n int) []T {
	c := (*s)[:n:n]
	*s = (*s)[n:]
	return c
}

// vaScratch is the working memory of Router.AllocateVCs. Nothing in it
// outlives a call, and network.Step runs the routers' AllocateVCs one at a
// time, so one vaScratch serves every router of a fabric. It is sized for
// the worst call and never grows.
type vaScratch struct {
	dec   []routing.Decision // per input VC: this call's decision for its head
	heads []uint8            // this call's routing heads with a grantable VC, ascending
	reqs  []alloc.VCRequest  // the list form's requests
	va    alloc.VCScratch    // the allocator's
}

// vaReqCap bounds one call's requests: every head asks for at most every
// VC of one port and the escape VC.
func vaReqCap(vcs int) int { return topo.NumPorts * vcs * (vcs + 1) }

// newVAScratch cuts, from s, the scratch of routers with vcs VCs.
func newVAScratch(vcs int, s *slabs) *vaScratch {
	n := topo.NumPorts * vcs
	return &vaScratch{
		dec:   s.decs.cut(n),
		heads: s.u8.cut(n)[:0],
		reqs:  s.reqs.cut(vaReqCap(vcs))[:0],
		va:    alloc.MakeVCScratch(n, n, s.i32.cut(4*n), s.u8.cut(2*n), s.grants.cut(n)),
	}
}

// Memory is what NewNodes builds a fabric's nodes on: the slabs and the
// router and endpoint arrays. The zero Memory holds nothing. NewNodes
// keeps each array that is large enough for the fabric it builds, cleared,
// and replaces each that is not, so nodes built on the memory of a
// finished fabric are the nodes a zero Memory gives (DESIGN.md,
// "Recycling"). A Memory backs one fabric at a time: building on it ends
// the one built on it before.
type Memory struct {
	slabs     slabs
	routers   []Router
	endpoints []Endpoint
}

// slabs holds one slab per element type of the per-node arrays, sized by
// newSlabs exactly for the routers and endpoints of one fabric and the
// one vaScratch its routers share (DESIGN.md, "Construction").
type slabs struct {
	u8     slab[uint8]
	i32    slab[int32]
	decs   slab[routing.Decision]
	flits  slab[*flit.Flit]
	reqs   slab[alloc.VCRequest]
	grants slab[alloc.Grant]
	index  slab[uint32]
	ejBufs slab[[]*flit.Flit]
}

// newSlabs sizes the slabs for a router and an endpoint at every node of
// cfg.Mesh and their vaScratch, fitting them on old, which keeps them.
// Router.init, newVAScratch and Endpoint.init make the cuts these sizes
// add up.
func newSlabs(cfg Config, old *slabs) slabs {
	nodes, v, depth := cfg.Mesh.Nodes(), cfg.VCs, cfg.BufDepth
	n := topo.NumPorts * v
	regs, index := routing.StateLen(cfg.Mesh, v, cfg.Alg)
	*old = slabs{
		u8:     reuse.Fit(old.u8, nodes*(7*n+v)+3*n),     // seven per-VC arrays, endpoint credits; heads, the allocator's two priority arrays
		i32:    reuse.Fit(old.i32, nodes*(4*n+regs)+4*n), // inBlocked, inDest, two round-robin, owner registers; the allocator's four
		decs:   reuse.Fit(old.decs, n),
		flits:  reuse.Fit(old.flits, nodes*(n+v)*depth),
		reqs:   reuse.Fit(old.reqs, vaReqCap(v)),
		grants: reuse.Fit(old.grants, n),
		index:  reuse.Fit(old.index, nodes*index),
		ejBufs: reuse.Fit(old.ejBufs, nodes*v),
	}
	return *old
}
