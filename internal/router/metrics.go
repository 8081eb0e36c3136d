package router

import (
	"nocsim/internal/flit"
	"nocsim/internal/topo"
)

// MetricsSink is the observability seam of the fabric: routers and
// endpoints report lifecycle events through it, and the simulator,
// tracer, heatmap collector and congestion analyzers aggregate them.
// A nil sink costs a single branch per event site.
//
// The per-packet lifecycle callbacks (OnInject, OnRoute, OnVCAllocGrant,
// OnHeadTraverse, OnEject) fire once per packet (per hop where
// applicable) and are additionally gated by WantPacketEvents, so a sink
// that only aggregates blocking statistics — like the simulator's
// built-in metrics — pays nothing for them. OnVCAllocFailure fires every
// cycle a routed head packet fails allocation and is gated only by the
// nil check, preserving the seed behaviour.
//
// Embed NopSink to implement the interface sparsely.
type MetricsSink interface {
	// WantPacketEvents reports whether the sink consumes the per-packet
	// lifecycle callbacks. Routers and endpoints cache the answer at
	// attach time; it must be constant over the sink's lifetime.
	WantPacketEvents() bool

	// OnInject fires at the source endpoint when a packet's head flit
	// enters the network (the packet's Inject cycle).
	OnInject(now int64, p *flit.Packet)

	// OnRoute fires at most once per packet per router, when the head
	// flit reaches the front of input port in and its route is first
	// computed.
	OnRoute(now int64, node int, p *flit.Packet, in topo.Direction)

	// OnVCAllocFailure fires when a routed head packet requested VCs but
	// received no grant this cycle. out is the requested output port;
	// footprintVCs and busyVCs describe its adaptive VCs at that moment —
	// the paper's "purity of blocking" is footprintVCs/busyVCs
	// (Figure 10b). waited is the number of consecutive failed cycles
	// including this one, so waited == 1 marks the start of a blocking
	// span.
	OnVCAllocFailure(now int64, node int, p *flit.Packet, out topo.Direction, footprintVCs, busyVCs int, waited int64)

	// OnVCAllocGrant fires when a head packet wins output VC (out, outVC).
	// class is the VC's state immediately before the grant claimed it
	// (idle / footprint / busy / escape); waited is the number of cycles
	// the packet previously failed allocation at this router (0 = granted
	// on the first attempt).
	OnVCAllocGrant(now int64, node int, p *flit.Packet, out topo.Direction, outVC int, class VCClass, waited int64)

	// WantRouteDecisions reports whether the sink consumes per-decision
	// adaptiveness records. Routers cache the answer at attach time; it
	// must be constant over the sink's lifetime. It is a separate
	// capability from WantPacketEvents because building a Decision reads
	// the port's VC masks — costlier than stamping a lifecycle event.
	WantRouteDecisions() bool

	// OnRouteDecision fires at most once per packet per router, right
	// after the packet's route is first computed, carrying the exercised
	// adaptiveness of that decision. Ejection decisions are not reported.
	OnRouteDecision(now int64, node int, p *flit.Packet, d Decision)

	// OnHeadTraverse fires when a packet's head flit crosses the crossbar
	// into output port out on VC outVC: one event per hop.
	OnHeadTraverse(now int64, node int, p *flit.Packet, out topo.Direction, outVC int)

	// OnEject fires at the destination endpoint when a packet's tail flit
	// is consumed (the packet's Eject cycle).
	OnEject(now int64, p *flit.Packet)
}

// NopSink implements MetricsSink with no-ops; embed it and override the
// events of interest.
type NopSink struct{}

// WantPacketEvents implements MetricsSink.
func (NopSink) WantPacketEvents() bool { return false }

// OnInject implements MetricsSink.
func (NopSink) OnInject(int64, *flit.Packet) {}

// OnRoute implements MetricsSink.
func (NopSink) OnRoute(int64, int, *flit.Packet, topo.Direction) {}

// OnVCAllocFailure implements MetricsSink.
func (NopSink) OnVCAllocFailure(int64, int, *flit.Packet, topo.Direction, int, int, int64) {}

// OnVCAllocGrant implements MetricsSink.
func (NopSink) OnVCAllocGrant(int64, int, *flit.Packet, topo.Direction, int, VCClass, int64) {}

// WantRouteDecisions implements MetricsSink.
func (NopSink) WantRouteDecisions() bool { return false }

// OnRouteDecision implements MetricsSink.
func (NopSink) OnRouteDecision(int64, int, *flit.Packet, Decision) {}

// OnHeadTraverse implements MetricsSink.
func (NopSink) OnHeadTraverse(int64, int, *flit.Packet, topo.Direction, int) {}

// OnEject implements MetricsSink.
func (NopSink) OnEject(int64, *flit.Packet) {}

// Tee fans events out to every non-nil sink. It returns nil when no sink
// remains and the sink itself when only one does, so the common
// single-consumer case keeps its direct dispatch.
func Tee(sinks ...MetricsSink) MetricsSink {
	var live teeSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type teeSink []MetricsSink

func (t teeSink) WantPacketEvents() bool {
	for _, s := range t {
		if s.WantPacketEvents() {
			return true
		}
	}
	return false
}

func (t teeSink) OnInject(now int64, p *flit.Packet) {
	for _, s := range t {
		s.OnInject(now, p)
	}
}

func (t teeSink) OnRoute(now int64, node int, p *flit.Packet, in topo.Direction) {
	for _, s := range t {
		s.OnRoute(now, node, p, in)
	}
}

func (t teeSink) OnVCAllocFailure(now int64, node int, p *flit.Packet, out topo.Direction, fp, busy int, waited int64) {
	for _, s := range t {
		s.OnVCAllocFailure(now, node, p, out, fp, busy, waited)
	}
}

func (t teeSink) OnVCAllocGrant(now int64, node int, p *flit.Packet, out topo.Direction, outVC int, class VCClass, waited int64) {
	for _, s := range t {
		s.OnVCAllocGrant(now, node, p, out, outVC, class, waited)
	}
}

func (t teeSink) WantRouteDecisions() bool {
	for _, s := range t {
		if s.WantRouteDecisions() {
			return true
		}
	}
	return false
}

func (t teeSink) OnRouteDecision(now int64, node int, p *flit.Packet, d Decision) {
	for _, s := range t {
		s.OnRouteDecision(now, node, p, d)
	}
}

func (t teeSink) OnHeadTraverse(now int64, node int, p *flit.Packet, out topo.Direction, outVC int) {
	for _, s := range t {
		s.OnHeadTraverse(now, node, p, out, outVC)
	}
}

func (t teeSink) OnEject(now int64, p *flit.Packet) {
	for _, s := range t {
		s.OnEject(now, p)
	}
}
