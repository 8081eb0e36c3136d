// Package obs is the fabric's observability subsystem: a bounded-ring
// packet lifecycle tracer with JSONL and Chrome-trace (Perfetto)
// exporters, per-router/per-port time-series counters with a CSV
// exporter, and per-link/per-node heatmaps reconciled against the
// simulation's accepted throughput. Everything plugs into the
// router.MetricsSink seam; a disabled collector costs nothing because
// routers and endpoints gate the per-packet callbacks on
// WantPacketEvents.
package obs

import (
	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/prof"
	"nocsim/internal/router"
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
	// sampling every SamplePeriod cycles. MaxSamples bounds the retained
	// router-samples (DefaultSampleRows when 0).
	SamplePeriod int64
	MaxSamples   int
	// Heatmap enables per-link/per-node accounting over the measurement
	// window.
	Heatmap bool
	// Profile enables the sampled cycle-loop phase profiler (see
	// PhaseProfiler); the run's Result then carries a PerfProfile.
	// ProfileEvery is the sampling period in cycles (DefaultProfileEvery
	// when 0). ProfileClock overrides the profiler's clock — tests
	// inject deterministic fakes; nil means prof.Now.
	Profile      bool
	ProfileEvery int64
	ProfileClock prof.Clock
	// Anatomy enables the latency-anatomy collector: per-packet latency
	// decomposition, exercised-adaptiveness decision records and the
	// footprint-occupancy time series; the run's Result then carries an
	// Anatomy aggregate. Occupancy is sampled every DefaultAnatomyPeriod
	// cycles; AnatomySamples bounds the retained series points
	// (DefaultAnatomySamples when 0).
	Anatomy        bool
	AnatomySamples int
}

// Enabled reports whether any collector is selected. The phase profiler
// is deliberately excluded: it is a network probe, not a MetricsSink
// collector, and is wired separately by the simulation.
func (o Options) Enabled() bool {
	return o.Trace || o.SamplePeriod > 0 || o.Heatmap || o.Anatomy
}

// Collector owns the selected observability components and implements
// router.MetricsSink by dispatching to them. The simulation drives
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
// entirely disabled so callers can pass the result straight to
// router.Tee.
func NewCollector(o Options) *Collector {
	if !o.Enabled() {
		return nil
	}
	c := &Collector{}
	if o.Trace {
		c.Tracer = NewTracer(o.TraceCapacity)
	}
	if o.SamplePeriod > 0 {
		c.Sampler = NewSampler(o.SamplePeriod, o.MaxSamples)
	}
	if o.Heatmap {
		c.Heatmap = NewHeatmap()
	}
	if o.Anatomy {
		c.Anatomy = NewAnatomyCollector(DefaultAnatomyPeriod, o.AnatomySamples)
	}
	return c
}

// Tick is called once per simulated cycle before the fabric steps; it
// drives periodic counter and occupancy sampling.
func (c *Collector) Tick(now int64, net *network.Network) {
	if c.Sampler != nil && now%c.Sampler.period == 0 {
		c.Sampler.Sample(now, net)
	}
	if c.Anatomy != nil && now%c.Anatomy.period == 0 {
		c.Anatomy.sample(now, net)
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

// --- router.MetricsSink ----------------------------------------------------

// WantPacketEvents implements router.MetricsSink: the per-packet
// lifecycle callbacks are consumed when tracing, heatmapping or
// collecting the latency anatomy.
func (c *Collector) WantPacketEvents() bool {
	return c.Tracer != nil || c.Heatmap != nil || c.Anatomy != nil
}

// OnInject implements router.MetricsSink.
func (c *Collector) OnInject(now int64, p *flit.Packet) {
	if c.Tracer != nil {
		c.Tracer.add(Event{Cycle: now, Kind: EventInject, Node: p.Src,
			Packet: p.ID, Src: p.Src, Dest: p.Dest})
	}
	if c.Anatomy != nil {
		c.Anatomy.onInject(now, p)
	}
}

// OnRoute implements router.MetricsSink.
func (c *Collector) OnRoute(now int64, node int, p *flit.Packet, in topo.Direction) {
	if c.Tracer != nil {
		c.Tracer.add(Event{Cycle: now, Kind: EventRoute, Node: node,
			Packet: p.ID, Src: p.Src, Dest: p.Dest, Dir: in})
	}
	if c.Anatomy != nil {
		c.Anatomy.onRoute(now, p)
	}
}

// OnVCAllocFailure implements router.MetricsSink: only the first failed
// cycle of a blocking span is recorded, so saturated runs do not flush
// the ring with repeats.
func (c *Collector) OnVCAllocFailure(now int64, node int, p *flit.Packet, out topo.Direction, fp, busy int, waited int64) {
	if c.Tracer != nil && waited == 1 {
		c.Tracer.add(Event{Cycle: now, Kind: EventBlock, Node: node,
			Packet: p.ID, Src: p.Src, Dest: p.Dest, Dir: out, FootprintVCs: fp, BusyVCs: busy})
	}
}

// OnVCAllocGrant implements router.MetricsSink.
func (c *Collector) OnVCAllocGrant(now int64, node int, p *flit.Packet, out topo.Direction, outVC int, class router.VCClass, waited int64) {
	if c.Tracer != nil {
		c.Tracer.add(Event{Cycle: now, Kind: EventGrant, Node: node,
			Packet: p.ID, Src: p.Src, Dest: p.Dest, Dir: out, VC: outVC, Class: class, Waited: waited})
	}
	if c.Anatomy != nil {
		c.Anatomy.onGrant(now, p, class, waited)
	}
}

// OnHeadTraverse implements router.MetricsSink.
func (c *Collector) OnHeadTraverse(now int64, node int, p *flit.Packet, out topo.Direction, outVC int) {
	if c.Tracer != nil {
		c.Tracer.add(Event{Cycle: now, Kind: EventHop, Node: node,
			Packet: p.ID, Src: p.Src, Dest: p.Dest, Dir: out, VC: outVC})
	}
	if c.Anatomy != nil {
		c.Anatomy.onHeadTraverse(now, p)
	}
}

// OnEject implements router.MetricsSink.
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

// WantRouteDecisions implements router.MetricsSink: decision records are
// consumed only by the anatomy collector.
func (c *Collector) WantRouteDecisions() bool { return c.Anatomy != nil }

// OnRouteDecision implements router.MetricsSink.
func (c *Collector) OnRouteDecision(now int64, node int, p *flit.Packet, d router.Decision) {
	if c.Anatomy != nil {
		c.Anatomy.onDecision(p, d)
	}
}

// compile-time seam check.
var _ router.MetricsSink = (*Collector)(nil)
