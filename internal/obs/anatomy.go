package obs

import (
	"fmt"
	"io"

	"nocsim/internal/flit"
	"nocsim/internal/router"
)

// Component is one named slice of the latency decomposition.
type Component struct {
	Name   string
	Cycles int64
}

// Anatomy is the aggregated latency anatomy and exercised adaptiveness
// of one run's measured packets. It rides on sim.Result (scrubbed by the
// determinism goldens like the other observability payloads) and is the
// runtime counterpart of the paper's static Eq-1 adaptiveness: instead
// of what the algorithm *could* offer, it records what each routing
// decision *did* offer and where every latency cycle went.
//
// The per-packet decomposition telescopes exactly:
//
//	SrcQueue + RouteWait + ΣVCWait + SwitchWait + Link + Serialization
//	  == LatencyCycles  (== Σ per-packet Eject-Born)
//
// so component shares always sum to 1 over the measured population.
type Anatomy struct {
	// Packets is the number of measured packets fully decomposed
	// (born in the measurement window and ejected before the run ended).
	Packets int64 `json:"packets"`
	// Hops is the total router traversals of those packets, including
	// the final ejection-port hop.
	Hops int64 `json:"hops"`

	// The latency components, in end-to-end cycle totals over all
	// measured packets. VCWaitCycles is split by the class of the VC the
	// wait ended on (indexed by router.VCClass).
	SrcQueueCycles      int64                      `json:"src_queue_cycles"`
	RouteWaitCycles     int64                      `json:"route_wait_cycles"`
	VCWaitCycles        [router.NumVCClasses]int64 `json:"vc_wait_cycles"`
	SwitchWaitCycles    int64                      `json:"switch_wait_cycles"`
	LinkCycles          int64                      `json:"link_cycles"`
	SerializationCycles int64                      `json:"serialization_cycles"`
	// LatencyCycles is the summed end-to-end (Born→Eject) latency; the
	// components above partition it exactly.
	LatencyCycles int64 `json:"latency_cycles"`

	// Grants counts VC-allocation wins by the granted VC's class at
	// grant time (all hops of measured packets, ejection included).
	Grants [router.NumVCClasses]int64 `json:"grants"`

	// Decision aggregates: one routing decision per measured packet per
	// router visited (ejection decisions excluded — they exercise no
	// routing freedom).
	Decisions int64 `json:"decisions"`
	// MinimalPortsSum accumulates the per-decision minimal-path port
	// ceiling; every decision offers one port, so Decisions over it is
	// the run's exercised port adaptiveness.
	MinimalPortsSum int64 `json:"minimal_ports_sum"`
	// AdmissibleVCsSum / OfferedVCsSum do the same for VCs.
	AdmissibleVCsSum int64 `json:"admissible_vcs_sum"`
	OfferedVCsSum    int64 `json:"offered_vcs_sum"`
	// FootprintVCsSum and IdleVCsSum classify the offered VCs by live
	// state at decision time (the remainder were busy).
	FootprintVCsSum int64 `json:"footprint_vcs_sum"`
	IdleVCsSum      int64 `json:"idle_vcs_sum"`
	// EscapeDecisions counts decisions whose request set included the
	// escape VC.
	EscapeDecisions int64 `json:"escape_decisions"`
}

// Components returns the latency decomposition as a fixed-order slice
// (the shared vocabulary of the CSV and table exporters).
func (a *Anatomy) Components() []Component {
	out := []Component{
		{"src-queue", a.SrcQueueCycles},
		{"route-wait", a.RouteWaitCycles},
	}
	for c := router.VCClassIdle; c < router.VCClass(router.NumVCClasses); c++ {
		out = append(out, Component{"vc-wait-" + c.String(), a.VCWaitCycles[c]})
	}
	out = append(out,
		Component{"switch-wait", a.SwitchWaitCycles},
		Component{"link", a.LinkCycles},
		Component{"serialization", a.SerializationCycles},
	)
	return out
}

// TotalGrants returns the grant count summed over classes.
func (a *Anatomy) TotalGrants() int64 {
	var n int64
	for _, g := range a.Grants {
		n += g
	}
	return n
}

// PortAdaptivenessExercised is the run-level exercised port
// adaptiveness: offered ports (one per decision) over the minimal-path
// ceiling, in [0, 1]. NaN-free: returns 0 when no decisions were
// recorded.
func (a *Anatomy) PortAdaptivenessExercised() float64 {
	if a.MinimalPortsSum == 0 {
		return 0
	}
	return float64(a.Decisions) / float64(a.MinimalPortsSum)
}

// VCAdaptivenessExercised is the run-level exercised VC adaptiveness:
// offered VCs over the admissible ceiling, in [0, 1].
func (a *Anatomy) VCAdaptivenessExercised() float64 {
	if a.AdmissibleVCsSum == 0 {
		return 0
	}
	return float64(a.OfferedVCsSum) / float64(a.AdmissibleVCsSum)
}

// GrantShare returns class's fraction of all grants (0 when none).
func (a *Anatomy) GrantShare(c router.VCClass) float64 {
	total := a.TotalGrants()
	if total == 0 {
		return 0
	}
	return float64(a.Grants[c]) / float64(total)
}

// Format renders the anatomy as the -anatomy table: the latency
// composition with per-packet means and shares, the grant split by VC
// class, and the exercised-adaptiveness summary.
func (a *Anatomy) Format(w io.Writer) {
	if a.Packets == 0 {
		fmt.Fprintln(w, "latency anatomy: no measured packets")
		return
	}
	mean := float64(a.LatencyCycles) / float64(a.Packets)
	fmt.Fprintf(w, "latency anatomy: %d packets, %d hops, mean latency %.2f cycles\n",
		a.Packets, a.Hops, mean)
	fmt.Fprintf(w, "  %-18s %12s %8s\n", "component", "cycles/pkt", "share")
	for _, c := range a.Components() {
		share := 0.0
		if a.LatencyCycles > 0 {
			share = float64(c.Cycles) / float64(a.LatencyCycles)
		}
		fmt.Fprintf(w, "  %-18s %12.2f %7.1f%%\n",
			c.Name, float64(c.Cycles)/float64(a.Packets), 100*share)
	}
	fmt.Fprintf(w, "  vc grants by class:")
	for c := router.VCClassIdle; c < router.VCClass(router.NumVCClasses); c++ {
		fmt.Fprintf(w, " %s %.1f%%", c, 100*a.GrantShare(c))
	}
	fmt.Fprintln(w)
	if a.Decisions > 0 {
		fmt.Fprintf(w, "  adaptiveness exercised: ports %.3f, vcs %.3f over %d decisions (escape offered %.1f%%)\n",
			a.PortAdaptivenessExercised(), a.VCAdaptivenessExercised(), a.Decisions,
			100*float64(a.EscapeDecisions)/float64(a.Decisions))
	}
}

// WriteCSV writes the aggregate as long-format metric,value rows — one
// file per run, schema documented in EXPERIMENTS.md.
func (a *Anatomy) WriteCSV(w io.Writer) error {
	type pair struct {
		name string
		v    any
	}
	pairs := []pair{
		{"packets", a.Packets},
		{"hops", a.Hops},
		{"latency_cycles", a.LatencyCycles},
	}
	for _, c := range a.Components() {
		pairs = append(pairs, pair{"component_" + c.Name + "_cycles", c.Cycles})
	}
	for c := router.VCClassIdle; c < router.VCClass(router.NumVCClasses); c++ {
		pairs = append(pairs, pair{"grants_" + c.String(), a.Grants[c]})
	}
	pairs = append(pairs,
		pair{"decisions", a.Decisions},
		pair{"minimal_ports_sum", a.MinimalPortsSum},
		pair{"admissible_vcs_sum", a.AdmissibleVCsSum},
		pair{"offered_vcs_sum", a.OfferedVCsSum},
		pair{"footprint_vcs_sum", a.FootprintVCsSum},
		pair{"idle_vcs_sum", a.IdleVCsSum},
		pair{"escape_decisions", a.EscapeDecisions},
		pair{"port_adaptiveness_exercised", fmt.Sprintf("%.6f", a.PortAdaptivenessExercised())},
		pair{"vc_adaptiveness_exercised", fmt.Sprintf("%.6f", a.VCAdaptivenessExercised())},
	)
	if _, err := fmt.Fprintln(w, "metric,value"); err != nil {
		return err
	}
	for _, p := range pairs {
		if _, err := fmt.Fprintf(w, "%s,%v\n", p.name, p.v); err != nil {
			return err
		}
	}
	return nil
}

// packetAnatomy is the in-flight decomposition state of one packet.
type packetAnatomy struct {
	// lastMark is the inject cycle, then the cycle of the last head
	// traversal — the reference point the next route-wait measures from.
	lastMark int64
	// grantAt is the cycle of the most recent VC-allocation grant.
	grantAt int64
}

// AnatomyCollector accumulates the latency anatomy. All event callbacks
// run on the single stepping goroutine, so it needs no locking.
type AnatomyCollector struct {
	windowSet  bool
	start, end int64

	// inflight holds only measured packets (born inside the measurement
	// window); events for unknown packet IDs are ignored.
	inflight map[uint64]packetAnatomy

	agg Anatomy
}

// NewAnatomyCollector returns an empty collector; it measures nothing
// until OpenWindow.
func NewAnatomyCollector() *AnatomyCollector {
	return &AnatomyCollector{inflight: make(map[uint64]packetAnatomy)}
}

// OpenWindow arms measurement for packets born in [start, end).
func (a *AnatomyCollector) OpenWindow(start, end int64) {
	a.windowSet = true
	a.start, a.end = start, end
}

// Aggregate returns a copy of the accumulated anatomy.
func (a *AnatomyCollector) Aggregate() *Anatomy {
	out := a.agg
	return &out
}

// onInject starts tracking a packet if it is measured: born inside the
// measurement window. The source-queue component is Inject - Born.
func (a *AnatomyCollector) onInject(now int64, p *flit.Packet) {
	if !a.windowSet || p.Born < a.start || p.Born >= a.end {
		return
	}
	a.inflight[p.ID] = packetAnatomy{lastMark: now}
	a.agg.SrcQueueCycles += now - p.Born
}

// onRoute charges the buffered wait before this router's route
// computation (route-wait) and the one-cycle link hop that delivered the
// head flit here.
func (a *AnatomyCollector) onRoute(now int64, p *flit.Packet) {
	st, ok := a.inflight[p.ID]
	if !ok {
		return
	}
	a.agg.RouteWaitCycles += now - st.lastMark - 1
	a.agg.LinkCycles++
}

// onGrant charges the allocation wait to the class of the VC that ended
// it.
func (a *AnatomyCollector) onGrant(now int64, p *flit.Packet, class router.VCClass, waited int64) {
	st, ok := a.inflight[p.ID]
	if !ok {
		return
	}
	a.agg.VCWaitCycles[class] += waited
	a.agg.Grants[class]++
	st.grantAt = now
	a.inflight[p.ID] = st
}

// onHeadTraverse charges the switch wait (grant → crossbar) and advances
// the packet's reference mark.
func (a *AnatomyCollector) onHeadTraverse(now int64, p *flit.Packet) {
	st, ok := a.inflight[p.ID]
	if !ok {
		return
	}
	a.agg.SwitchWaitCycles += now - st.grantAt
	st.lastMark = now
	a.inflight[p.ID] = st
	a.agg.Hops++
}

// onEject closes the packet: the tail drain after the head's final
// traversal is serialization, and the components now telescope to
// Eject - Born exactly.
func (a *AnatomyCollector) onEject(now int64, p *flit.Packet) {
	st, ok := a.inflight[p.ID]
	if !ok {
		return
	}
	a.agg.SerializationCycles += now - st.lastMark
	a.agg.LatencyCycles += now - p.Born
	a.agg.Packets++
	delete(a.inflight, p.ID)
}

// onDecision accumulates one routing decision's exercised adaptiveness.
// Only decisions of measured (in-flight tracked) packets count, so the
// aggregate describes the same population as the latency components.
func (a *AnatomyCollector) onDecision(p *flit.Packet, d router.Decision) {
	if _, ok := a.inflight[p.ID]; !ok {
		return
	}
	a.agg.Decisions++
	a.agg.MinimalPortsSum += int64(d.MinimalPorts)
	a.agg.AdmissibleVCsSum += int64(d.AdmissibleVCs)
	a.agg.OfferedVCsSum += int64(d.OfferedVCs)
	a.agg.FootprintVCsSum += int64(d.FootprintVCs)
	a.agg.IdleVCsSum += int64(d.IdleVCs)
	if d.EscapeRequested {
		a.agg.EscapeDecisions++
	}
}
