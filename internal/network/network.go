// Package network wires routers, channels and endpoints into a 2D mesh —
// neighbours' routing.State included, which is the status exchange DBAR-class
// algorithms consume — and advances the whole fabric cycle by cycle.
package network

import (
	"math/bits"
	"math/rand"

	"nocsim/internal/flit"
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
	// NewAlg constructs a routing algorithm instance; each router gets
	// its own so algorithms may keep per-router state.
	NewAlg func() routing.Algorithm
	Rand   *rand.Rand
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
	cfg       Config
	routers   []*router.Router
	endpoints []*router.Endpoint
	arena     *flit.Arena
	now       int64
	inFlight  int

	// links is every channel and busy those carrying a flit or credit (a
	// channel appends itself when first sent on; Step delivers from, ticks
	// and prunes the list); wake is the next cycle's worklist as a node set
	// and active this cycle's, ascending. All are sized at construction.
	links  []router.Channel
	busy   []*router.Channel
	wake   []uint64
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
// covers both link spans of a cycle (delivery of arrivals at the top, the
// pipeline tick at the bottom); route computation runs inside PhaseVCAlloc's
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
// phase) and EndCycle closes the last span. A phase may begin more than
// once per cycle (link-traversal does); probes accumulate.
type PhaseProbe interface {
	BeginCycle(now int64) bool
	BeginPhase(p Phase)
	EndCycle()
}

// New builds the mesh: one router and endpoint per node, one channel per
// directed link (including injection and ejection links).
func New(cfg Config) *Network {
	n := &Network{cfg: cfg, arena: flit.NewArena()}
	nodes := cfg.Mesh.Nodes()
	n.routers = make([]*router.Router, nodes)
	n.endpoints = make([]*router.Endpoint, nodes)
	n.wake = make([]uint64, (nodes+63)/64)
	n.active = make([]int, 0, nodes)
	for id := 0; id < nodes; id++ {
		n.routers[id] = router.New(router.Config{
			Mesh:     cfg.Mesh,
			NodeID:   id,
			VCs:      cfg.VCs,
			BufDepth: cfg.BufDepth,
			Speedup:  cfg.Speedup,
			Alg:      cfg.NewAlg(),
			Rand:     cfg.Rand,
			Sinks:    cfg.Sinks,
		})
	}
	// Every channel (injection and ejection per node, two per mesh edge) is
	// cut from one slice.
	w, h := cfg.Mesh.Width, cfg.Mesh.Height
	n.links = make([]router.Channel, 2*nodes+2*((w-1)*h+w*(h-1)))
	n.busy = make([]*router.Channel, 0, len(n.links))
	unwired := n.links
	link := func() (ch *router.Channel) {
		ch, unwired = &unwired[0], unwired[1:]
		return ch.Init(&n.busy)
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
	// Injection and ejection links.
	for id := 0; id < nodes; id++ {
		inj, ej := link(), link()
		n.routers[id].AttachIn(topo.Local, inj)
		n.routers[id].AttachOut(topo.Local, ej)
		ep := router.NewEndpoint(id, cfg.VCs, cfg.BufDepth, inj, ej, n.arena)
		ep.SetPacketSink(cfg.Sinks.Packets)
		if iv, ok := cfg.SlowEndpoints[id]; ok {
			ep.ConsumeInterval = iv
		}
		ep.Sink = func(p *flit.Packet) {
			n.inFlight--
			if n.Sink != nil {
				n.Sink(p)
			}
		}
		n.endpoints[id] = ep
	}
	return n
}

// SetBlockedSink replaces Config.Sinks.Blocked on every router, from the
// next Step on; a simulation opens and closes its measurement window so.
func (n *Network) SetBlockedSink(b router.BlockedSink) {
	for _, r := range n.routers {
		r.SetBlockedSink(b)
	}
}

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// Mesh returns the fabric's topology.
func (n *Network) Mesh() topo.Mesh { return n.cfg.Mesh }

// Router returns the router of node id, for analyzers.
func (n *Network) Router(id int) *router.Router { return n.routers[id] }

// Endpoint returns the endpoint of node id.
func (n *Network) Endpoint(id int) *router.Endpoint { return n.endpoints[id] }

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
func (n *Network) wakeNode(id int) { n.wake[id>>6] |= 1 << uint(id&63) }

// wakeEnds wakes both ends of a link that has something to deliver.
func (n *Network) wakeEnds(from, to int) { n.wakeNode(from); n.wakeNode(to) }

// Step advances the fabric by one cycle, visiting only the links on the
// busy list and the nodes woken since the last cycle began: by a link
// still busy after its tick (both ends), by their own router or endpoint
// still holding work after their step, or by an Offer. A skipped node's
// cycle is a provable no-op (DESIGN.md, "Wake lists"); the worklist is
// ascending in node id, so iteration and shared-RNG consumption order are
// those of a loop over every node. Routers and endpoints are handed the
// cycle, so a node that slept any number of cycles stamps its events
// correctly. Phases are globally ordered so results are independent of
// router iteration order: all deliveries, all routing+VC allocation, all
// switch traversal, all endpoint activity, all busy links tick. On a cycle the probe elects to sample, each phase entry is
// marked; the probe only reads clocks and allocation counters between
// phases, so sampling can never change simulated results.
func (n *Network) Step() {
	p := n.Probe
	probed := p != nil && p.BeginCycle(n.now)
	n.active = n.active[:0]
	for w, m := range n.wake {
		for ; m != 0; m &= m - 1 {
			n.active = append(n.active, w<<6+bits.TrailingZeros64(m))
		}
		n.wake[w] = 0
	}
	if probed {
		p.BeginPhase(PhaseLinkTraversal)
	}
	for _, ch := range n.busy {
		ch.Deliver()
	}
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
		e := n.endpoints[id]
		e.Consume(n.now)
		e.Inject(n.now)
		// Nothing later in the cycle touches the node's held work.
		if !e.Quiescent() || !n.routers[id].Quiescent() {
			n.wakeNode(id)
		}
	}
	if probed {
		p.BeginPhase(PhaseLinkTraversal)
	}
	// A link that went idle leaves the list (its next Send or SendCredit
	// relists it); one still busy has something to deliver next cycle.
	keep := n.busy[:0]
	for _, ch := range n.busy {
		if ch.Tick() {
			keep = append(keep, ch)
			n.wakeEnds(ch.Ends())
		}
	}
	n.busy = keep
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
	for _, r := range n.routers {
		for d := topo.East; d <= topo.Local; d++ {
			total += r.OutputFlits(d)
		}
	}
	return total
}

// InFlight reports the number of packets offered but not yet fully ejected
// (source queues plus packets inside the fabric); used to drain
// simulations.
func (n *Network) InFlight() int { return n.inFlight }
