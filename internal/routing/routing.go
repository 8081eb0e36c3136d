// Package routing implements the routing algorithms evaluated in the
// Footprint paper (ISCA'17): dimension-order routing (DOR), the Odd-Even
// turn model, DBAR-style fully-adaptive routing, the proposed Footprint
// algorithm, and the two static VC-mapping overlays on the first three,
// XORDET ("+xordet") and VOQ_sw ("+voqsw"). It also provides the paper's
// two-level adaptiveness metrics and hardware cost model.
//
// A routing algorithm sees only local router state — per-VC idleness and
// ownership at each output port, plus the one-hop-downstream status that
// DBAR-class algorithms exchange — and produces a set of prioritized
// virtual-channel requests that the router feeds to its VC allocator.
package routing

import (
	"fmt"
	"math/bits"
	"math/rand"

	"nocsim/internal/alloc"
	"nocsim/internal/topo"
)

// View is what a routing decision reads: the State of the router it is
// made at, fetched once per decision and all local, and DownstreamIdle,
// which models the neighbour status exchange used by DBAR. It is an
// interface only so that a Context can be written with a router in its
// View field; the router is the one implementation outside tests.
type View interface {
	// State returns the router's routing-visible state, to be read only.
	State() *State
	// DownstreamIdle returns the number of idle adaptive VCs on the
	// productive output ports toward dest at the neighbouring router
	// reached through output port d (0 at a mesh edge). This is the
	// one-hop-ahead, destination-sliced congestion information DBAR
	// routers exchange.
	DownstreamIdle(d topo.Direction, dest int) int
}

// Context carries one routing decision's inputs.
type Context struct {
	Mesh topo.Mesh
	Cur  int // current router
	Dest int // packet destination
	// InDir is the input port the packet arrived on; Local for freshly
	// injected packets. Turn-model algorithms need it to identify turns.
	InDir topo.Direction
	View  View
	Rand  *rand.Rand
}

// Request asks for virtual channel VC of output port Dir at priority Pri.
type Request struct {
	Dir topo.Direction
	VC  int
	Pri alloc.Priority
}

// Decision is one routing decision in the form the router consumes: the
// chosen output port, the VCs requested on it as one bitmask per priority
// level (bit v of Pri[p] requests VC v at priority p; a VC appears at one
// level at most), and optionally the escape VC 0 of the dimension-order
// port at alloc.Lowest. Every algorithm here decides "some VCs of one
// port, plus perhaps the escape", so this is all a decision holds.
type Decision struct {
	Dir    topo.Direction
	Pri    [alloc.Highest + 1]uint32
	Esc    topo.Direction
	HasEsc bool
}

// VCMask returns the VCs requested on Dir at any priority. Pri[alloc.None]
// is no request, here as in PriOf and the allocator.
func (d *Decision) VCMask() uint32 {
	var m uint32
	for _, p := range d.Pri[alloc.Lowest:] {
		m |= p
	}
	return m
}

// PriOf returns the priority at which VC vc of Dir is requested
// (alloc.None when it is not).
func (d *Decision) PriOf(vc int) alloc.Priority {
	bit := uint32(1) << uint(vc)
	for p := alloc.Highest; p > alloc.None; p-- {
		if d.Pri[p]&bit != 0 {
			return p
		}
	}
	return alloc.None
}

// appendRequests expands d to list form — the VCs of Dir in ascending
// order, the escape request last — and appends it to reqs. Every
// Algorithm's Route is this applied to its Decide.
func appendRequests(reqs []Request, d Decision) []Request {
	for m := d.VCMask(); m != 0; m &= m - 1 {
		vc := bits.TrailingZeros32(m)
		reqs = append(reqs, Request{Dir: d.Dir, VC: vc, Pri: d.PriOf(vc)})
	}
	if d.HasEsc {
		reqs = append(reqs, Request{Dir: d.Esc, VC: 0, Pri: alloc.Lowest})
	}
	return reqs
}

// Algorithm computes VC requests for the head flit of a packet.
type Algorithm interface {
	// UsesEscape reports whether VC 0 is reserved as a dimension-order
	// escape channel (Duato's theory). When true, adaptive VCs are
	// 1..V-1; when false all V VCs are usable by any packet. An
	// algorithm with an escape VC also reallocates conservatively, as
	// Duato's condition requires: an output VC is reallocated only after
	// the tail flit's credit has returned (Section 4.2.1 of the paper
	// attributes Odd-Even's uniform-random edge over DBAR to DBAR having
	// this restriction).
	UsesEscape() bool
	// Decide computes the VC requests for the packet described by ctx.
	// ctx.Cur != ctx.Dest. It writes nothing the caller can see: the
	// decision is returned by value.
	Decide(ctx *Context) Decision
	// Route is Decide in list form: it appends the requests to reqs, the
	// VCs of the chosen port in ascending order and the escape request
	// last, and returns the extended slice.
	Route(ctx *Context, reqs []Request) []Request
}

// vcMask returns the mask of VCs [lo, nVCs).
func vcMask(lo, nVCs int) uint32 {
	return (uint32(1)<<uint(nVCs) - 1) &^ (uint32(1)<<uint(lo) - 1)
}

// dorOf returns the dimension-order (X then Y) direction among the
// minimal directions topo.Mesh.MinimalDirs reported. It panics when there
// is none: the packet is at its destination, and routers eject such
// packets before routing.
func dorOf(dx topo.Direction, hasX bool, dy topo.Direction, hasY bool) topo.Direction {
	switch {
	case hasX:
		return dx
	case hasY:
		return dy
	default:
		panic("routing: route computed at the destination")
	}
}

// dorDir returns the dimension-order productive direction from cur toward
// dest.
func dorDir(m topo.Mesh, cur, dest int) topo.Direction {
	return dorOf(m.MinimalDirs(cur, dest))
}

// algorithms is every routing configuration, in name order: the four
// base algorithms and the two overlays on each base but Footprint. It is
// the one place a configuration is named.
var algorithms = []struct {
	name string
	new  func() Algorithm
}{
	{"dbar", func() Algorithm { return NewDBAR() }},
	{"dbar+voqsw", func() Algorithm { return &overlay{base: NewDBAR(), voqsw: true} }},
	{"dbar+xordet", func() Algorithm { return &overlay{base: NewDBAR()} }},
	{"dor", func() Algorithm { return NewDOR() }},
	{"dor+voqsw", func() Algorithm { return &overlay{base: NewDOR(), voqsw: true} }},
	{"dor+xordet", func() Algorithm { return &overlay{base: NewDOR()} }},
	{"footprint", func() Algorithm { return NewFootprint() }},
	{"oddeven", func() Algorithm { return NewOddEven() }},
	{"oddeven+voqsw", func() Algorithm { return &overlay{base: NewOddEven(), voqsw: true} }},
	{"oddeven+xordet", func() Algorithm { return &overlay{base: NewOddEven()} }},
}

// New returns a fresh instance of the named algorithm.
func New(name string) (Algorithm, error) {
	for _, a := range algorithms {
		if a.name == name {
			return a.new(), nil
		}
	}
	return nil, fmt.Errorf("routing: unknown algorithm %q (have %v)", name, Names())
}

// MustNew is New but panics on unknown names.
func MustNew(name string) Algorithm {
	a, err := New(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Names lists the algorithm names, sorted.
func Names() []string {
	names := make([]string, len(algorithms))
	for i, a := range algorithms {
		names[i] = a.name
	}
	return names
}
