// Package network wires routers, channels and endpoints into a 2D mesh —
// neighbours' routing.State included, which is the status exchange DBAR-class
// algorithms consume — and advances the whole fabric cycle by cycle.
package network

import (
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
	// StickyRouting freezes per-packet VC request sets at route time;
	// see router.Config.StickyRouting.
	StickyRouting bool
	// SlowEndpoints maps node id -> consume interval for endpoints whose
	// ejection bandwidth is below the port bandwidth (Section 2's second
	// source of endpoint congestion). Unlisted nodes drain every cycle.
	SlowEndpoints map[int]int
	// StepAll disables the active-set worklist: Step visits every router
	// and endpoint every cycle, as the pre-worklist loop did. The
	// reference path — results must be bit-identical either way
	// (internal/sim's worklist tests compare the two), it only costs time.
	StepAll bool
}

// chanLink is one channel with the nodes it can wake: a busy channel has
// a flit or credit to deliver, so both its endpoints' nodes must step.
// Injection/ejection channels name the same node twice.
type chanLink struct {
	ch   *router.Channel
	a, b int
}

// Network is a running mesh fabric.
type Network struct {
	cfg       Config
	routers   []*router.Router
	endpoints []*router.Endpoint
	links     []chanLink
	arena     *flit.Arena
	now       int64
	inFlight  int

	// activeMark/activeNodes are the worklist scratch: the node ids that
	// can do work this cycle, ascending. Reused across cycles.
	activeMark  []bool
	activeNodes []int

	// Sink, when set, receives every packet as its tail flit is consumed
	// at the destination endpoint. Set it before offering traffic.
	Sink func(p *flit.Packet)

	// Probe, when set, observes the cycle loop's phase structure on the
	// cycles it elects to sample (obs.PhaseProfiler implements it). The
	// disabled path pays one nil check per cycle.
	Probe PhaseProbe
}

// Phase identifies one stage of the fabric's cycle loop, in execution
// order within Step. PhaseInjectEject covers both endpoint spans of a
// cycle (flit receive at the top, consume/inject at the bottom);
// PhaseSwitchAlloc covers switch allocation plus crossbar traversal;
// PhaseLinkTraversal is the link pipeline tick.
type Phase uint8

const (
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
// once per cycle (inject-eject does); probes accumulate.
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
	n.activeMark = make([]bool, nodes)
	n.activeNodes = make([]int, 0, nodes)
	for id := 0; id < nodes; id++ {
		n.routers[id] = router.New(router.Config{
			Mesh:          cfg.Mesh,
			NodeID:        id,
			VCs:           cfg.VCs,
			BufDepth:      cfg.BufDepth,
			Speedup:       cfg.Speedup,
			Alg:           cfg.NewAlg(),
			Rand:          cfg.Rand,
			Sinks:         cfg.Sinks,
			StickyRouting: cfg.StickyRouting,
		})
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
			ch := router.NewChannel()
			n.links = append(n.links, chanLink{ch: ch, a: id, b: nb})
			n.routers[id].AttachOut(d, ch)
			n.routers[nb].AttachIn(d.Opposite(), ch)
			n.routers[id].AttachDownstream(d, n.routers[nb].State())
		}
	}
	// Injection and ejection links.
	for id := 0; id < nodes; id++ {
		inj := router.NewChannel()
		ej := router.NewChannel()
		n.links = append(n.links, chanLink{ch: inj, a: id, b: id}, chanLink{ch: ej, a: id, b: id})
		n.routers[id].AttachIn(topo.Local, inj)
		n.routers[id].AttachOut(topo.Local, ej)
		ep := router.NewEndpoint(id, cfg.VCs, cfg.BufDepth, inj, ej)
		ep.SetPacketSink(cfg.Sinks.Packets)
		ep.UseArena(n.arena)
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

// Offer enqueues a packet at its source endpoint.
func (n *Network) Offer(p *flit.Packet) {
	n.inFlight++
	n.endpoints[p.Src].Offer(p)
}

// Arena returns the fabric's flit/packet arena. Injectors allocate
// packets from it (endpoints recycle them at ejection) and the profiler
// reads its live/free/high-water accounting.
func (n *Network) Arena() *flit.Arena { return n.arena }

// computeActive rebuilds the worklist for this cycle: a node is active
// when its router or endpoint holds work, or when any attached channel is
// busy (a flit or credit will be delivered to it this cycle). Everything
// a skipped node could do is a provable no-op — its per-cycle state
// transitions are all driven by held work or channel arrivals, and the
// arbiters update fairness state only on grants — so skipping cannot
// change any simulated result. The list is ascending in node id, keeping
// iteration order (and shared-RNG consumption order) identical to the
// step-everything loop. With Config.StepAll the list is simply every
// node.
func (n *Network) computeActive() {
	n.activeNodes = n.activeNodes[:0]
	if n.cfg.StepAll {
		for id := range n.routers {
			n.activeNodes = append(n.activeNodes, id)
		}
		return
	}
	for id := range n.activeMark {
		n.activeMark[id] = !n.routers[id].Quiescent() || !n.endpoints[id].Quiescent()
	}
	for _, l := range n.links {
		if l.ch.Busy() {
			n.activeMark[l.a] = true
			n.activeMark[l.b] = true
		}
	}
	for id, m := range n.activeMark {
		if m {
			n.activeNodes = append(n.activeNodes, id)
		}
	}
}

// Step advances the fabric by one cycle, visiting only the active nodes.
// Phases are globally ordered so results are independent of router
// iteration order: all receives, then all routing+VC allocation, then
// all switch traversal and endpoint activity, then all links tick. On a
// cycle the probe elects to sample, each phase entry is marked; the
// probe only reads clocks and allocation counters between phases, so
// sampling can never change simulated results.
func (n *Network) Step() {
	p := n.Probe
	probed := p != nil && p.BeginCycle(n.now)
	n.computeActive()
	if probed {
		p.BeginPhase(PhaseInjectEject)
	}
	for _, id := range n.activeNodes {
		n.endpoints[id].Receive()
	}
	if probed {
		p.BeginPhase(PhaseRouteCompute)
	}
	for _, id := range n.activeNodes {
		r := n.routers[id]
		r.SyncClock(n.now)
		r.Receive()
	}
	if probed {
		p.BeginPhase(PhaseVCAlloc)
	}
	for _, id := range n.activeNodes {
		n.routers[id].AllocateVCs()
	}
	if probed {
		p.BeginPhase(PhaseSwitchAlloc)
	}
	for _, id := range n.activeNodes {
		n.routers[id].SwitchAndTraverse()
	}
	if probed {
		p.BeginPhase(PhaseInjectEject)
	}
	for _, id := range n.activeNodes {
		e := n.endpoints[id]
		e.Consume(n.now)
		e.Inject(n.now)
	}
	if probed {
		p.BeginPhase(PhaseLinkTraversal)
	}
	// Ticking an idle channel is a no-op, so the link phase is identical
	// with or without the worklist.
	for _, l := range n.links {
		l.ch.Tick()
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
