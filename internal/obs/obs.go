// Package obs is the fabric's observability subsystem: a bounded-ring
// packet lifecycle tracer with a JSONL exporter, per-router/per-port
// time-series counters with a CSV exporter, per-link/per-node heatmaps
// reconciled against the simulation's accepted throughput, and the
// latency anatomy aggregate. The event collectors plug into the
// network.Sinks seam through Collector.Attach; a collector that is off
// leaves its sink field nil, and the nil check at the event site is the
// whole cost. The watchdog and its fabric snapshot read the network
// directly and write a file when a run stalls.
package obs

import (
	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/topo"
)

// Options selects which collectors a simulation attaches. The zero value
// disables observability entirely.
type Options struct {
	// Trace enables the packet lifecycle tracer. TraceCapacity bounds its
	// ring buffer (DefaultTraceCapacity when 0).
	Trace         bool
	TraceCapacity int
	// SamplePeriod, when > 0, enables per-router/per-port counter
	// sampling every SamplePeriod cycles, retaining DefaultSampleRows
	// router-samples.
	SamplePeriod int64
	// Heatmap enables per-link/per-node accounting over the measurement
	// window.
	Heatmap bool
	// Anatomy enables the latency-anatomy collector: per-packet latency
	// decomposition and exercised-adaptiveness decision records; the
	// run's Result then carries an Anatomy aggregate.
	Anatomy bool
}

// Enabled reports whether any collector is selected.
func (o Options) Enabled() bool {
	return o.Trace || o.SamplePeriod > 0 || o.Heatmap || o.Anatomy
}

// Collector owns the selected observability components and dispatches
// the network.Sinks events it attached itself to. The simulation drives
// Tick every cycle and OpenWindow/CloseWindow around its measurement
// phase.
type Collector struct {
	// Tracer is non-nil when lifecycle tracing is enabled.
	Tracer *Tracer
	// Sampler is non-nil when counter sampling is enabled.
	Sampler *Sampler
	// Heatmap is non-nil when link heatmaps are enabled.
	Heatmap *Heatmap
	// Anatomy is non-nil when the latency-anatomy collector is enabled.
	Anatomy *AnatomyCollector
}

// NewCollector builds the collectors o selects; it returns nil when o is
// entirely disabled; Attach on the nil collector is a no-op.
func NewCollector(o Options) *Collector {
	if !o.Enabled() {
		return nil
	}
	c := &Collector{}
	if o.Trace {
		c.Tracer = NewTracer(o.TraceCapacity)
	}
	if o.SamplePeriod > 0 {
		c.Sampler = NewSampler(o.SamplePeriod)
	}
	if o.Heatmap {
		c.Heatmap = NewHeatmap()
	}
	if o.Anatomy {
		c.Anatomy = NewAnatomyCollector()
	}
	return c
}

// Tick is called once per simulated cycle before the fabric steps; it
// drives periodic counter sampling.
func (c *Collector) Tick(now int64, net *network.Network) {
	if c.Sampler != nil && now%c.Sampler.period == 0 {
		c.Sampler.Sample(now, net)
	}
}

// OpenWindow arms the heatmap and the anatomy collector for the
// measurement window [start, end).
func (c *Collector) OpenWindow(net *network.Network, mesh topo.Mesh, start, end int64) {
	if c.Heatmap != nil {
		c.Heatmap.OpenWindow(net, mesh, start, end)
	}
	if c.Anatomy != nil {
		c.Anatomy.OpenWindow(start, end)
	}
}

// CloseWindow freezes the heatmap's link counters at the end of the
// measurement window.
func (c *Collector) CloseWindow(net *network.Network) {
	if c.Heatmap != nil {
		c.Heatmap.CloseWindow(net)
	}
}

// --- network.Sinks ----------------------------------------------------------

// Attach adds the collector to the sinks whose events it consumes:
// Packets when tracing, heatmapping or collecting the latency anatomy,
// Decisions for the anatomy alone, and — only when tracing — Blocked,
// keeping the sink already there. A nil collector leaves sinks untouched.
func (c *Collector) Attach(sinks *network.Sinks) {
	if c == nil {
		return
	}
	if c.Tracer != nil || c.Heatmap != nil || c.Anatomy != nil {
		sinks.Packets = c
	}
	if c.Anatomy != nil {
		sinks.Decisions = c
	}
	if c.Tracer != nil {
		sinks.Blocked = blockTracer{next: sinks.Blocked, tracer: c.Tracer}
	}
}

// blockTracer is the one place two consumers share an event: it forwards
// each failure to the sink attached before it, then records the start of
// the blocking span.
type blockTracer struct {
	next   network.BlockedSink // may be nil
	tracer *Tracer
}

// OnVCAllocFailure implements network.BlockedSink: only the first failed
// cycle of a blocking span is recorded, so saturated runs do not flush
// the ring with repeats. It is also the only cycle p is non-nil on.
func (b blockTracer) OnVCAllocFailure(now int64, node int, p *flit.Packet, out topo.Direction, fp, busy int, waited int64) {
	if b.next != nil {
		b.next.OnVCAllocFailure(now, node, p, out, fp, busy, waited)
	}
	if waited == 1 {
		b.tracer.add(Event{Cycle: now, Kind: EventBlock, Node: node,
			Packet: p.ID, Src: p.Src, Dest: p.Dest, Dir: out, FootprintVCs: fp, BusyVCs: busy})
	}
}

// OnInject implements network.PacketSink.
func (c *Collector) OnInject(now int64, p *flit.Packet) {
	if c.Tracer != nil {
		c.Tracer.add(Event{Cycle: now, Kind: EventInject, Node: p.Src,
			Packet: p.ID, Src: p.Src, Dest: p.Dest})
	}
	if c.Anatomy != nil {
		c.Anatomy.onInject(now, p)
	}
}

// OnRoute implements network.PacketSink.
func (c *Collector) OnRoute(now int64, node int, p *flit.Packet, in topo.Direction) {
	if c.Tracer != nil {
		c.Tracer.add(Event{Cycle: now, Kind: EventRoute, Node: node,
			Packet: p.ID, Src: p.Src, Dest: p.Dest, Dir: in})
	}
	if c.Anatomy != nil {
		c.Anatomy.onRoute(now, p)
	}
}

// OnVCAllocGrant implements network.PacketSink.
func (c *Collector) OnVCAllocGrant(now int64, node int, p *flit.Packet, out topo.Direction, outVC int, class network.VCClass, waited int64) {
	if c.Tracer != nil {
		c.Tracer.add(Event{Cycle: now, Kind: EventGrant, Node: node,
			Packet: p.ID, Src: p.Src, Dest: p.Dest, Dir: out, VC: outVC, Class: class, Waited: waited})
	}
	if c.Anatomy != nil {
		c.Anatomy.onGrant(now, p, class, waited)
	}
}

// OnHeadTraverse implements network.PacketSink.
func (c *Collector) OnHeadTraverse(now int64, node int, p *flit.Packet, out topo.Direction, outVC int) {
	if c.Tracer != nil {
		c.Tracer.add(Event{Cycle: now, Kind: EventHop, Node: node,
			Packet: p.ID, Src: p.Src, Dest: p.Dest, Dir: out, VC: outVC})
	}
	if c.Anatomy != nil {
		c.Anatomy.onHeadTraverse(now, p)
	}
}

// OnEject implements network.PacketSink.
func (c *Collector) OnEject(now int64, p *flit.Packet) {
	if c.Tracer != nil {
		c.Tracer.add(Event{Cycle: now, Kind: EventEject, Node: p.Dest,
			Packet: p.ID, Src: p.Src, Dest: p.Dest})
	}
	if c.Heatmap != nil {
		c.Heatmap.onEject(now, p)
	}
	if c.Anatomy != nil {
		c.Anatomy.onEject(now, p)
	}
}

// OnRouteDecision implements network.DecisionSink; Attach sets Decisions
// only when the anatomy collector is on.
func (c *Collector) OnRouteDecision(now int64, node int, p *flit.Packet, d network.Decision) {
	c.Anatomy.onDecision(p, d)
}
