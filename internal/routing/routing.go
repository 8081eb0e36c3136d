// Package routing implements the routing algorithms evaluated in the
// Footprint paper (ISCA'17): dimension-order routing (DOR), the Odd-Even
// turn model, DBAR-style fully-adaptive routing, the proposed Footprint
// algorithm, and the XORDET static VC-mapping overlay. It also provides
// the paper's two-level adaptiveness metrics and hardware cost model.
//
// A routing algorithm sees only local router state — per-VC idleness and
// ownership at each output port, plus the one-hop-downstream status that
// DBAR-class algorithms exchange — and produces a set of prioritized
// virtual-channel requests that the router feeds to its VC allocator.
package routing

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"nocsim/internal/alloc"
	"nocsim/internal/topo"
)

// View is the routing-visible state of one router, provided by the router
// microarchitecture. All information is local except DownstreamIdle, which
// models the neighbour status exchange used by DBAR.
type View interface {
	// VCs returns the number of virtual channels per physical channel.
	VCs() int
	// VCIdle reports whether VC v of output port d holds no flits and is
	// not allocated: the VC has no owner.
	VCIdle(d topo.Direction, v int) bool
	// VCOwner returns the destination of the packets currently occupying
	// VC v of output port d, or -1 when the VC is idle.
	VCOwner(d topo.Direction, v int) int
	// VCRegOwner returns the persistent footprint register of VC v of
	// output port d: the destination of the last packet allocated to
	// it, surviving drains until overwritten (-1 before first use).
	// Footprint uses it to re-grant a just-drained footprint VC to its
	// own flow first.
	VCRegOwner(d topo.Direction, v int) int
	// DownstreamIdle returns the number of idle adaptive VCs on the
	// productive output ports toward dest at the neighbouring router
	// reached through output port d. This is the one-hop-ahead,
	// destination-sliced congestion information DBAR routers exchange.
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

// Algorithm computes VC requests for the head flit of a packet.
type Algorithm interface {
	// Name returns the algorithm's identifier, e.g. "footprint".
	Name() string
	// UsesEscape reports whether VC 0 is reserved as a dimension-order
	// escape channel (Duato's theory). When true, adaptive VCs are
	// 1..V-1; when false all V VCs are usable by any packet.
	UsesEscape() bool
	// ConservativeRealloc reports Duato-style VC reallocation: an output
	// VC may be re-allocated only after the tail flit's credit has
	// returned (Section 4.2.1 of the paper attributes Odd-Even's uniform
	// -random edge over DBAR to DBAR having this restriction).
	ConservativeRealloc() bool
	// Route appends the VC requests for the packet described by ctx to
	// reqs and returns the extended slice. ctx.Cur != ctx.Dest.
	Route(ctx *Context, reqs []Request) []Request
}

// adaptiveVCRange returns the usable VC index range [lo, V) for non-escape
// requests of an algorithm.
func adaptiveVCRange(usesEscape bool) (lo int) {
	if usesEscape {
		return 1
	}
	return 0
}

// AggregateView is an optional View extension for views that maintain
// O(1) per-port aggregates (the router's struct-of-arrays state does, by
// updating a per-port idle bitmask and per-destination owner counts on
// every state transition). The counting helpers prefer it over scanning
// VC by VC, because routes are re-evaluated every cycle a packet waits
// and the scans dominated the cycle loop.
type AggregateView interface {
	View
	// IdleCount returns the number of idle VCs of port d in [lo, VCs).
	IdleCount(d topo.Direction, lo int) int
	// FootprintCount returns the number of VCs of port d in [lo, VCs)
	// currently owned by dest.
	FootprintCount(d topo.Direction, dest, lo int) int
}

// BitsView is a further optional extension for views that can expose one
// port's VC state as bitmasks (bit v describes VC v). Algorithms whose
// request-building step inspects every VC of the chosen port (Footprint's
// step 3) read three masks instead of making three interface calls per
// VC. Implementations must agree with the scalar View methods; the
// routing property tests cross-check the two paths.
type BitsView interface {
	AggregateView
	// IdleBits returns the idle-VC bitmask of port d.
	IdleBits(d topo.Direction) uint32
	// OwnerBits returns the bitmask of port d's VCs owned by dest.
	OwnerBits(d topo.Direction, dest int) uint32
	// RegOwnerBits returns the bitmask of port d's VCs whose persistent
	// footprint register names dest.
	RegOwnerBits(d topo.Direction, dest int) uint32
}

// countIdle counts idle VCs of port d in [lo, V).
func countIdle(v View, d topo.Direction, lo int) int {
	if av, ok := v.(AggregateView); ok {
		return av.IdleCount(d, lo)
	}
	n := 0
	for i := lo; i < v.VCs(); i++ {
		if v.VCIdle(d, i) {
			n++
		}
	}
	return n
}

// countFootprint counts VCs of port d in [lo, V) owned by dest.
func countFootprint(v View, d topo.Direction, dest, lo int) int {
	if av, ok := v.(AggregateView); ok {
		return av.FootprintCount(d, dest, lo)
	}
	n := 0
	for i := lo; i < v.VCs(); i++ {
		if v.VCOwner(d, i) == dest {
			n++
		}
	}
	return n
}

// dorDir returns the dimension-order (X then Y) productive direction.
// It panics when cur == dest; routers eject such packets before routing.
func dorDir(m topo.Mesh, cur, dest int) topo.Direction {
	dx, hasX, dy, hasY := m.MinimalDirs(cur, dest)
	switch {
	case hasX:
		return dx
	case hasY:
		return dy
	default:
		panic(fmt.Sprintf("routing: dorDir(%d, %d) at destination", cur, dest))
	}
}

// Registry of algorithm constructors, keyed by name. Constructors receive
// no arguments; XORDET overlays are registered as composite names such as
// "dor+xordet".
var (
	registryMu sync.RWMutex
	registry   = map[string]func() Algorithm{}
)

// Register adds a constructor under name; it panics on duplicates.
// Packages register their algorithms in init.
func Register(name string, ctor func() Algorithm) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("routing: duplicate algorithm " + name)
	}
	registry[name] = ctor
}

// New returns a fresh instance of the named algorithm.
func New(name string) (Algorithm, error) {
	registryMu.RLock()
	ctor, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("routing: unknown algorithm %q (have %v)", name, Names())
	}
	return ctor(), nil
}

// MustNew is New but panics on unknown names.
func MustNew(name string) Algorithm {
	a, err := New(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Names lists the registered algorithm names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
