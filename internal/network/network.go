// Package network wires routers, channels and endpoints into a 2D mesh —
// neighbours' routing.State included, which is the status exchange DBAR-class
// algorithms consume — and advances the whole fabric cycle by cycle.
package network

import (
	"math/bits"
	"math/rand"

	"nocsim/internal/flit"
	"nocsim/internal/reuse"
	"nocsim/internal/router"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// Config parameterizes a mesh network.
type Config struct {
	Mesh     topo.Mesh
	VCs      int
	BufDepth int
	Speedup  int
	// Alg is the routing algorithm every router decides with. One instance
	// serves the whole fabric: an algorithm keeps no state of its own
	// (Decide is pure, under the routepurity lint), and what it reads of
	// a router comes through the routing.View it is handed.
	Alg  routing.Algorithm
	Rand *rand.Rand
	// Sinks receives router and endpoint events; a nil field is an event
	// nobody listens to.
	Sinks router.Sinks
	// SlowEndpoints maps node id -> consume interval for endpoints whose
	// ejection bandwidth is below the port bandwidth (Section 2's second
	// source of endpoint congestion). Unlisted nodes drain every cycle.
	SlowEndpoints map[int]int
}

// Network is a running mesh fabric.
type Network struct {
	cfg Config
	// routers and endpoints hold node id's router and endpoint at index
	// id, as values: Router and Endpoint hand out pointers into them, and
	// the channels and neighbours' DownstreamIdle point into them too.
	routers   []router.Router
	endpoints []router.Endpoint
	arena     *flit.Arena
	now       int64
	inFlight  int

	// links is every channel. lists is what they report to: the busy list
	// of those holding a flit or credits (a channel appends itself when
	// first staged on; Step delivers from and empties the list) and the
	// next cycle's worklist as a node set (a Send sets its receiving
	// node). active is this cycle's worklist, ascending. All are sized at
	// construction.
	links  []router.Channel
	lists  router.Links
	active []int

	// Sink, when set, receives every packet as its tail flit is consumed
	// at the destination endpoint. Set it before offering traffic.
	Sink func(p *flit.Packet)

	// Probe, when set, observes the cycle loop's phase structure on the
	// cycles it elects to sample (the benchmark module's per-cycle timer
	// implements it). The disabled path pays one nil check per cycle.
	Probe PhaseProbe
}

// Phase identifies one stage of the fabric's cycle loop. PhaseLinkTraversal
// is the delivery pass at the top of the cycle, which hands on what the
// links carried last cycle; route computation runs inside PhaseVCAlloc's
// AllocateVCs; PhaseSwitchAlloc covers switch allocation plus crossbar
// traversal; PhaseInjectEject is the endpoints' consume and inject.
type Phase uint8

const (
	// PhaseRouteCompute is never marked: route computation runs inside
	// AllocateVCs, so its time falls in PhaseVCAlloc. The constant stays
	// because the benchmark module's per-layer report names it.
	PhaseRouteCompute Phase = iota
	PhaseVCAlloc
	PhaseSwitchAlloc
	PhaseLinkTraversal
	PhaseInjectEject
)

// NumPhases is the phase count, for fixed-size per-phase accumulators.
const NumPhases = int(PhaseInjectEject) + 1

// String names the phase for reports and metric labels.
func (p Phase) String() string {
	switch p {
	case PhaseRouteCompute:
		return "route-compute"
	case PhaseVCAlloc:
		return "vc-alloc"
	case PhaseSwitchAlloc:
		return "switch-alloc"
	case PhaseLinkTraversal:
		return "link-traversal"
	case PhaseInjectEject:
		return "inject-eject"
	default:
		panic("network: invalid phase")
	}
}

// PhaseProbe observes sampled cycles of the loop. BeginCycle is called
// at the top of every Step; returning false leaves the cycle unmarked.
// Within an instrumented cycle, BeginPhase marks each phase entry (the
// probe attributes the span since the previous mark to the previous
// phase) and EndCycle closes the last span. Step marks each phase once
// per cycle.
type PhaseProbe interface {
	BeginCycle(now int64) bool
	BeginPhase(p Phase)
	EndCycle()
}

// Memory is what New builds a fabric on: its nodes' memory (router.Memory),
// its channels, its lists and its arena. The zero Memory holds nothing.
// New keeps each array that is large enough for the fabric it builds,
// cleared, replaces each that is not and resets the arena, so a fabric
// built on the memory of a finished one runs as one built on a zero
// Memory (DESIGN.md, "Recycling"). A Memory backs one fabric at a time:
// building on it ends the one built on it before, which must not be
// stepped or read again.
type Memory struct {
	nodes  router.Memory
	arena  flit.Arena
	links  []router.Channel
	busy   []*router.Channel
	wake   []uint64
	active []int
}

// New builds the mesh on mem (new memory when mem is nil): one router and
// endpoint per node, one channel per directed link (including injection
// and ejection links). It makes the same number of heap allocations at
// any mesh size (DESIGN.md, "Construction").
func New(cfg Config, mem *Memory) *Network {
	if mem == nil {
		mem = new(Memory)
	}
	mem.arena.Reset()
	n := &Network{cfg: cfg, arena: &mem.arena}
	nodes := cfg.Mesh.Nodes()
	n.routers, n.endpoints = router.NewNodes(router.Config{
		Mesh:     cfg.Mesh,
		VCs:      cfg.VCs,
		BufDepth: cfg.BufDepth,
		Speedup:  cfg.Speedup,
		Alg:      cfg.Alg,
		Rand:     cfg.Rand,
		Sinks:    cfg.Sinks,
	}, n.arena, &mem.nodes)
	mem.wake = reuse.Fit(mem.wake, (nodes+63)/64)
	mem.active = reuse.Fit(mem.active, nodes)
	n.lists.Wake, n.active = mem.wake, mem.active[:0]
	// Every channel (injection and ejection per node, two per mesh edge) is
	// cut from one slice.
	w, h := cfg.Mesh.Width, cfg.Mesh.Height
	mem.links = reuse.Fit(mem.links, 2*nodes+2*((w-1)*h+w*(h-1)))
	mem.busy = reuse.Fit(mem.busy, len(mem.links))
	n.links, n.lists.Busy = mem.links, mem.busy[:0]
	unwired := n.links
	link := func() (ch *router.Channel) {
		ch, unwired = &unwired[0], unwired[1:]
		return ch.Init(&n.lists)
	}
	// Inter-router links: for every node and direction with a neighbour,
	// one channel from node's output to the neighbour's opposite input,
	// and the neighbour's state for node's DownstreamIdle to read.
	for id := 0; id < nodes; id++ {
		for d := topo.East; d <= topo.South; d++ {
			nb, ok := cfg.Mesh.Neighbor(id, d)
			if !ok {
				continue
			}
			ch := link()
			n.routers[id].AttachOut(d, ch)
			n.routers[nb].AttachIn(d.Opposite(), ch)
			n.routers[id].AttachDownstream(d, n.routers[nb].State())
		}
	}
	// Injection and ejection links, and one ejection sink for every
	// endpoint.
	sink := func(p *flit.Packet) {
		n.inFlight--
		if n.Sink != nil {
			n.Sink(p)
		}
	}
	for id := 0; id < nodes; id++ {
		inj, ej := link(), link()
		n.routers[id].AttachIn(topo.Local, inj)
		n.routers[id].AttachOut(topo.Local, ej)
		ep := &n.endpoints[id]
		ep.Attach(inj, ej)
		ep.SetPacketSink(cfg.Sinks.Packets)
		if iv, ok := cfg.SlowEndpoints[id]; ok {
			ep.ConsumeInterval = iv
		}
		ep.Sink = sink
	}
	return n
}

// SetBlockedSink replaces Config.Sinks.Blocked on every router, from the
// next Step on; a simulation opens and closes its measurement window so.
func (n *Network) SetBlockedSink(b router.BlockedSink) {
	for i := range n.routers {
		n.routers[i].SetBlockedSink(b)
	}
}

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// Mesh returns the fabric's topology.
func (n *Network) Mesh() topo.Mesh { return n.cfg.Mesh }

// Router returns the router of node id, for analyzers.
func (n *Network) Router(id int) *router.Router { return &n.routers[id] }

// Endpoint returns the endpoint of node id.
func (n *Network) Endpoint(id int) *router.Endpoint { return &n.endpoints[id] }

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.cfg.Mesh.Nodes() }

// Offer enqueues a packet at its source endpoint and wakes the node. It is
// the only way a packet enters a fabric: an Endpoint.Offer behind the
// network's back wakes nobody and waits for something else to step its node.
func (n *Network) Offer(p *flit.Packet) {
	n.inFlight++
	n.endpoints[p.Src].Offer(p)
	n.wakeNode(p.Src)
}

// Arena returns the fabric's flit/packet arena. Injectors allocate
// packets from it (endpoints recycle them at ejection) and the profiler
// reads its live/free/high-water accounting.
func (n *Network) Arena() *flit.Arena { return n.arena }

// wakeNode puts node id on the next cycle's worklist.
func (n *Network) wakeNode(id int) { n.lists.Wake[id>>6] |= 1 << uint(id&63) }

// Step advances the fabric by one cycle, visiting only the links on the
// busy list and the nodes woken since the last cycle began: by a flit sent
// to them, by their own router or endpoint still holding work after their
// step, or by an Offer. A skipped node's cycle is a provable no-op
// (DESIGN.md, "Wake lists"); the worklist is ascending in node id, so
// iteration and shared-RNG consumption order are those of a loop over
// every node. Routers and endpoints are handed the cycle, so a node that
// slept any number of cycles stamps its events correctly. Phases are
// globally ordered so results are independent of router iteration order:
// one delivery pass over the busy list (what every link carried last
// cycle), all routing+VC allocation, all switch traversal, all endpoint
// activity. The routers share one VC-allocation scratch (router.NewNodes),
// so their AllocateVCs calls must not overlap. On a cycle the probe
// elects to sample, each phase entry is marked once; the probe only reads
// clocks and allocation counters between phases, so sampling can never
// change simulated results.
func (n *Network) Step() {
	p := n.Probe
	probed := p != nil && p.BeginCycle(n.now)
	n.active = n.active[:0]
	for w, m := range n.lists.Wake {
		for ; m != 0; m &= m - 1 {
			n.active = append(n.active, w<<6+bits.TrailingZeros64(m))
		}
		n.lists.Wake[w] = 0
	}
	if probed {
		p.BeginPhase(PhaseLinkTraversal)
	}
	// Delivering stages nothing, so every listed link ends the pass empty
	// and the list empties whole; this cycle's sends refill it.
	for _, ch := range n.lists.Busy {
		ch.Deliver()
	}
	n.lists.Busy = n.lists.Busy[:0]
	if probed {
		p.BeginPhase(PhaseVCAlloc)
	}
	for _, id := range n.active {
		n.routers[id].AllocateVCs(n.now)
	}
	if probed {
		p.BeginPhase(PhaseSwitchAlloc)
	}
	for _, id := range n.active {
		n.routers[id].SwitchAndTraverse(n.now)
	}
	if probed {
		p.BeginPhase(PhaseInjectEject)
	}
	for _, id := range n.active {
		e := &n.endpoints[id]
		e.Consume(n.now)
		e.Inject(n.now)
		// Nothing later in the cycle touches the node's held work.
		if !e.Quiescent() || !n.routers[id].Quiescent() {
			n.wakeNode(id)
		}
	}
	if probed {
		p.EndCycle()
	}
	n.now++
}

// Run advances the fabric by cycles cycles.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// TotalOutputFlits sums the flits sent by every router over every output
// port (cardinal links plus ejection links) since construction — the
// fabric's total flit-hop work, used by the runtime self-metrics.
func (n *Network) TotalOutputFlits() int64 {
	var total int64
	for i := range n.routers {
		for d := topo.East; d <= topo.Local; d++ {
			total += n.routers[i].OutputFlits(d)
		}
	}
	return total
}

// InFlight reports the number of packets offered but not yet fully ejected
// (source queues plus packets inside the fabric); used to drain
// simulations.
func (n *Network) InFlight() int { return n.inFlight }
