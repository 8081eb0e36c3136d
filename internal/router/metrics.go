package router

import (
	"nocsim/internal/flit"
	"nocsim/internal/topo"
)

// Sinks is the observability seam of the fabric: routers and endpoints
// report lifecycle events through it, and the simulator, tracer, heatmap
// collector and congestion analyzers aggregate them. Each field is nil
// when nobody listens, and that nil is the only off switch: every event
// site is `if Sinks.X != nil { … }`, so an unobserved event costs one
// branch and a forgotten gate is a nil dereference in the first test that
// runs without observers.
type Sinks struct {
	// Blocked receives the one per-cycle event: a failure for every
	// blocked head, every cycle it stays blocked.
	Blocked BlockedSink
	// Packets receives the lifecycle events, which fire once per packet
	// (per hop where applicable).
	Packets PacketSink
	// Decisions receives the adaptiveness records. It is a separate sink
	// from Packets because building a Decision reads the port's VC masks
	// — costlier than stamping a lifecycle event.
	Decisions DecisionSink
}

// BlockedSink consumes VC-allocation failures.
type BlockedSink interface {
	// OnVCAllocFailure fires when a routed head packet requested VCs but
	// received no grant this cycle. out is the requested output port;
	// footprintVCs and busyVCs describe its adaptive VCs at that moment —
	// the paper's "purity of blocking" is footprintVCs/busyVCs
	// (Figure 10b). waited is the number of consecutive failed cycles
	// including this one, so waited == 1 marks the start of a blocking
	// span. p is the blocked packet on that first cycle and nil on every
	// later one: a head that stays blocked is reported from the router's
	// dense arrays alone.
	OnVCAllocFailure(now int64, node int, p *flit.Packet, out topo.Direction, footprintVCs, busyVCs int, waited int64)
}

// PacketSink consumes the per-packet lifecycle events.
type PacketSink interface {
	// OnInject fires at the source endpoint when a packet's head flit
	// enters the network (the packet's Inject cycle).
	OnInject(now int64, p *flit.Packet)

	// OnRoute fires at most once per packet per router, when the head
	// flit reaches the front of input port in and its route is first
	// computed.
	OnRoute(now int64, node int, p *flit.Packet, in topo.Direction)

	// OnVCAllocGrant fires when a head packet wins output VC (out, outVC).
	// class is the VC's state immediately before the grant claimed it
	// (idle / footprint / busy / escape); waited is the number of cycles
	// the packet previously failed allocation at this router (0 = granted
	// on the first attempt).
	OnVCAllocGrant(now int64, node int, p *flit.Packet, out topo.Direction, outVC int, class VCClass, waited int64)

	// OnHeadTraverse fires when a packet's head flit crosses the crossbar
	// into output port out on VC outVC: one event per hop.
	OnHeadTraverse(now int64, node int, p *flit.Packet, out topo.Direction, outVC int)

	// OnEject fires at the destination endpoint when a packet's tail flit
	// is consumed (the packet's Eject cycle).
	OnEject(now int64, p *flit.Packet)
}

// DecisionSink consumes per-decision adaptiveness records.
type DecisionSink interface {
	// OnRouteDecision fires at most once per packet per router, right
	// after the packet's route is first computed, carrying the exercised
	// adaptiveness of that decision. Ejection decisions are not reported.
	OnRouteDecision(now int64, node int, p *flit.Packet, d Decision)
}
