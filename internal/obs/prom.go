package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"nocsim/internal/flit"
	"nocsim/internal/router"
)

// The Prometheus text exposition format (version 0.0.4) is hand-rolled
// here so the live observability server stays free of third-party
// dependencies. A PromWriter renders metric families in declaration
// order: one # HELP and # TYPE line per family followed by its samples,
// with full label-value escaping.

// PromLabel is one label pair of a sample.
type PromLabel struct {
	Name, Value string
}

// PromWriter streams Prometheus text format to an io.Writer. Errors are
// sticky: the first write failure is retained and subsequent calls are
// no-ops, so callers check Err once at the end.
type PromWriter struct {
	w    io.Writer
	err  error
	seen map[string]bool
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, seen: map[string]bool{}}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

// Family declares a metric family: its # HELP and # TYPE header. typ is
// "gauge" or "counter". Declaring the same family twice is a programming
// error surfaced through Err, since Prometheus rejects duplicate headers.
func (p *PromWriter) Family(name, help, typ string) {
	if p.err != nil {
		return
	}
	if p.seen[name] {
		p.err = fmt.Errorf("obs: duplicate metric family %q", name)
		return
	}
	p.seen[name] = true
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Sample emits one sample of the most recently declared family. NaN is
// skipped (a gauge with no observation yet has no sample, rather than a
// literal NaN that trips alerting rules).
func (p *PromWriter) Sample(name string, labels []PromLabel, value float64) {
	if p.err != nil || math.IsNaN(value) {
		return
	}
	if !p.seen[name] {
		p.err = fmt.Errorf("obs: sample for undeclared family %q", name)
		return
	}
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(value))
	b.WriteByte('\n')
	_, p.err = io.WriteString(p.w, b.String())
}

// formatValue renders a sample value: integers without an exponent,
// everything else in Go's shortest-round-trip form, and infinities in
// Prometheus' +Inf/-Inf spelling.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline (quotes are
// legal there).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// writeMetrics renders the hub's full state in exposition format. Called
// with h.mu held.
func (h *Hub) writeMetrics(w io.Writer) error {
	p := NewPromWriter(w)

	p.Family("nocsim_runs_planned", "Simulation runs the experiment plans to execute (0 when unknown).", "gauge")
	p.Sample("nocsim_runs_planned", nil, float64(h.plan))
	p.Family("nocsim_runs_completed_total", "Simulation runs completed since the hub started.", "counter")
	p.Sample("nocsim_runs_completed_total", nil, float64(h.completed))
	p.Family("nocsim_runs_active", "Simulation runs currently executing.", "gauge")
	active := 0
	for _, id := range h.order {
		if r, ok := h.runs[id]; ok && !r.Done {
			active++
		}
	}
	p.Sample("nocsim_runs_active", nil, float64(active))
	p.Family("nocsim_watchdog_stalls_total", "Stall windows flagged by the progress watchdog.", "counter")
	p.Sample("nocsim_watchdog_stalls_total", nil, float64(h.stalls))

	// Per-run series for the runs still executing, or the most recently
	// finished run when idle, so scrapes between sweep points still see
	// the last state.
	runs := h.exposedRuns()
	perRun := func(name, help, typ string, get func(r *RunStatus) float64) {
		p.Family(name, help, typ)
		for _, r := range runs {
			p.Sample(name, []PromLabel{{"run", r.Label}}, get(r))
		}
	}
	perRun("nocsim_cycles_total", "Fabric cycles simulated by the run.", "counter",
		func(r *RunStatus) float64 { return float64(r.Cycle) })
	perRun("nocsim_flits_offered_total", "Flits offered to the fabric by the run's injectors.", "counter",
		func(r *RunStatus) float64 { return float64(r.OfferedFlits) })
	perRun("nocsim_flits_ejected_total", "Flits consumed at destination endpoints.", "counter",
		func(r *RunStatus) float64 { return float64(r.EjectedFlits) })
	perRun("nocsim_flit_hops_total", "Flits sent through router output ports (fabric transport work).", "counter",
		func(r *RunStatus) float64 { return float64(r.FlitHops) })
	perRun("nocsim_packets_in_flight", "Packets offered but not yet fully ejected.", "gauge",
		func(r *RunStatus) float64 { return float64(r.InFlight) })
	perRun("nocsim_run_progress_ratio", "Run progress through its cycle budget (0-1).", "gauge",
		func(r *RunStatus) float64 { return r.Percent / 100 })
	perRun("nocsim_accepted_rate", "Live accepted throughput in flits/node/cycle over the measurement window.", "gauge",
		func(r *RunStatus) float64 { return r.AcceptedRate })
	perRun("nocsim_sim_cycles_per_second", "Host simulation speed in fabric cycles per wall second.", "gauge",
		func(r *RunStatus) float64 { return r.CyclesPerSec })
	perRun("nocsim_trace_events_total", "Packet lifecycle events observed by the tracer (0 when tracing is off).", "counter",
		func(r *RunStatus) float64 { return float64(r.TraceEvents) })
	perRun("nocsim_trace_dropped_events_total", "Lifecycle events lost to trace-ring overwrite; nonzero means the trace only covers a suffix of the run.", "counter",
		func(r *RunStatus) float64 { return float64(r.TraceDropped) })

	// Arena families, labeled by run and pool (flits/packets), for runs
	// whose fabric published an arena account.
	perArena := func(name, help, typ string, get func(p *flit.PoolStats) float64) {
		p.Family(name, help, typ)
		for _, r := range runs {
			if r.Arena == nil {
				continue
			}
			p.Sample(name, []PromLabel{{"run", r.Label}, {"pool", "flits"}}, get(&r.Arena.Flits))
			p.Sample(name, []PromLabel{{"run", r.Label}, {"pool", "packets"}}, get(&r.Arena.Packets))
		}
	}
	perArena("nocsim_arena_live", "Arena slots currently allocated to the fabric.", "gauge",
		func(p *flit.PoolStats) float64 { return float64(p.Live) })
	perArena("nocsim_arena_free", "Recycled arena slots awaiting reuse.", "gauge",
		func(p *flit.PoolStats) float64 { return float64(p.Free) })
	perArena("nocsim_arena_high_water", "Maximum live arena slots observed (working-set size).", "gauge",
		func(p *flit.PoolStats) float64 { return float64(p.HighWater) })
	perArena("nocsim_arena_allocs_total", "Arena allocations served since run start.", "counter",
		func(p *flit.PoolStats) float64 { return float64(p.Allocs) })
	perArena("nocsim_arena_reused_total", "Arena allocations served from the free-list rather than by growing a slab.", "counter",
		func(p *flit.PoolStats) float64 { return float64(p.Reused) })

	// Latency-anatomy families, for the runs whose anatomy collector is
	// enabled. Labels: run (+ component or vc_class).
	perAnatomy := func(name, help, typ string, get func(a *Anatomy) float64) {
		p.Family(name, help, typ)
		for _, r := range runs {
			if r.Anatomy != nil {
				p.Sample(name, []PromLabel{{"run", r.Label}}, get(r.Anatomy))
			}
		}
	}
	perAnatomy("nocsim_anatomy_packets_total", "Measured packets fully decomposed by the latency-anatomy collector.", "counter",
		func(a *Anatomy) float64 { return float64(a.Packets) })
	perAnatomy("nocsim_anatomy_decisions_total", "Routing decisions recorded for measured packets (ejection excluded).", "counter",
		func(a *Anatomy) float64 { return float64(a.Decisions) })
	perAnatomy("nocsim_anatomy_port_adaptiveness_exercised", "Offered ports over the minimal-path ceiling, aggregated over decisions (0-1).", "gauge",
		func(a *Anatomy) float64 { return a.PortAdaptivenessExercised() })
	perAnatomy("nocsim_anatomy_vc_adaptiveness_exercised", "Offered VCs over the admissible ceiling, aggregated over decisions (0-1).", "gauge",
		func(a *Anatomy) float64 { return a.VCAdaptivenessExercised() })
	p.Family("nocsim_anatomy_latency_cycles_total", "End-to-end latency cycles of measured packets by component; components partition the total exactly.", "counter")
	for _, r := range runs {
		if r.Anatomy == nil {
			continue
		}
		for _, c := range r.Anatomy.Components() {
			p.Sample("nocsim_anatomy_latency_cycles_total",
				[]PromLabel{{"run", r.Label}, {"component", c.Name}}, float64(c.Cycles))
		}
	}
	p.Family("nocsim_anatomy_grants_total", "VC-allocation grants by the granted VC's class at grant time.", "counter")
	for _, r := range runs {
		if r.Anatomy == nil {
			continue
		}
		for class, n := range r.Anatomy.Grants {
			p.Sample("nocsim_anatomy_grants_total",
				[]PromLabel{{"run", r.Label}, {"vc_class", router.VCClass(class).String()}}, float64(n))
		}
	}
	perOcc := func(name, help string, get func(s *AnatomySample) float64) {
		p.Family(name, help, "gauge")
		for _, r := range runs {
			if r.Occupancy != nil {
				p.Sample(name, []PromLabel{{"run", r.Label}}, get(r.Occupancy))
			}
		}
	}
	perOcc("nocsim_anatomy_owned_vcs", "Network-port output VCs whose buffers hold packets to some destination (latest occupancy sample).",
		func(s *AnatomySample) float64 { return float64(s.OwnedVCs) })
	perOcc("nocsim_anatomy_idle_vcs", "Fully drained, unallocated network-port output VCs (latest occupancy sample).",
		func(s *AnatomySample) float64 { return float64(s.IdleVCs) })
	perOcc("nocsim_anatomy_congestion_trees", "Distinct destinations owning at least one VC — live congestion-tree count (latest occupancy sample).",
		func(s *AnatomySample) float64 { return float64(s.Trees) })
	perOcc("nocsim_anatomy_largest_tree_vcs", "VCs owned by the largest congestion tree (latest occupancy sample).",
		func(s *AnatomySample) float64 { return float64(s.LargestTree) })

	// Per-phase series from the cycle-loop profiler, for the runs that
	// carry one. Labels: run + pipeline phase.
	perPhase := func(name, help, typ string, get func(ph PhaseStats) float64) {
		p.Family(name, help, typ)
		for _, r := range runs {
			for _, ph := range r.Phases {
				p.Sample(name, []PromLabel{{"run", r.Label}, {"phase", ph.Phase}}, get(ph))
			}
		}
	}
	perPhase("nocsim_phase_sampled_nanos_total", "Wall nanoseconds attributed to the pipeline phase over sampled cycles.", "counter",
		func(ph PhaseStats) float64 { return float64(ph.Nanos) })
	perPhase("nocsim_phase_alloc_bytes_total", "Heap bytes allocated in the pipeline phase over sampled cycles.", "counter",
		func(ph PhaseStats) float64 { return float64(ph.AllocBytes) })
	perPhase("nocsim_phase_allocs_total", "Heap allocations in the pipeline phase over sampled cycles.", "counter",
		func(ph PhaseStats) float64 { return float64(ph.Allocs) })
	perPhase("nocsim_phase_time_share", "Fraction of sampled cycle time spent in the pipeline phase (0-1).", "gauge",
		func(ph PhaseStats) float64 { return ph.TimeShare })

	// Per-router gauges from the latest fabric sample.
	if g := h.gauges; g != nil {
		node := func(id int) string { return strconv.Itoa(id) }
		p.Family("nocsim_router_buffer_occupancy", "Flits buffered at the router input port (instantaneous).", "gauge")
		for _, rs := range g.Samples {
			for d := 0; d < len(rs.Ports); d++ {
				p.Sample("nocsim_router_buffer_occupancy",
					[]PromLabel{{"node", node(rs.Node)}, {"port", portName(d)}},
					float64(rs.Ports[d].BufferOcc))
			}
		}
		p.Family("nocsim_router_credit_stalls_total", "VC-cycles the output port stalled upstream VCs for lack of credits.", "counter")
		for _, rs := range g.Samples {
			for d := 0; d < len(rs.Ports); d++ {
				p.Sample("nocsim_router_credit_stalls_total",
					[]PromLabel{{"node", node(rs.Node)}, {"port", portName(d)}},
					float64(rs.Ports[d].CreditStalls))
			}
		}
		p.Family("nocsim_router_link_flits_total", "Flits sent through the router output port.", "counter")
		for _, rs := range g.Samples {
			for d := 0; d < len(rs.Ports); d++ {
				p.Sample("nocsim_router_link_flits_total",
					[]PromLabel{{"node", node(rs.Node)}, {"port", portName(d)}},
					float64(rs.Ports[d].LinkFlits))
			}
		}
		p.Family("nocsim_router_vc_alloc_failures_total", "Head packets denied VC allocation, summed over cycles.", "counter")
		for _, rs := range g.Samples {
			p.Sample("nocsim_router_vc_alloc_failures_total",
				[]PromLabel{{"node", node(rs.Node)}}, float64(rs.VCAllocFails))
		}
	}
	return p.Err()
}

// portName maps a port index to its compass letter without importing
// topo's Direction into the exposition path.
func portName(d int) string {
	names := [...]string{"E", "W", "N", "S", "L"}
	if d < len(names) {
		return names[d]
	}
	return strconv.Itoa(d)
}

// exposedRuns returns the runs to expose as per-run series: all active
// runs, or the most recently finished one when idle. Sorted by label for
// deterministic output. Called with h.mu held.
func (h *Hub) exposedRuns() []*RunStatus {
	var out []*RunStatus
	for _, r := range h.runs {
		if !r.Done {
			out = append(out, r)
		}
	}
	if len(out) == 0 && len(h.order) > 0 {
		if r, ok := h.runs[h.order[len(h.order)-1]]; ok {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}
