package obs

import (
	"fmt"
	"io"

	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/router"
	"nocsim/internal/topo"
)

// DefaultAnatomyPeriod is the footprint-occupancy sampling period in
// cycles when the caller does not choose one.
const DefaultAnatomyPeriod = 256

// DefaultAnatomySamples bounds the occupancy time series.
const DefaultAnatomySamples = 4096

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
	// MinimalPortsSum / OfferedPortsSum accumulate the per-decision
	// minimal-path port ceiling and the ports actually offered;
	// their ratio is the run's exercised port adaptiveness.
	MinimalPortsSum int64 `json:"minimal_ports_sum"`
	OfferedPortsSum int64 `json:"offered_ports_sum"`
	// AdmissibleVCsSum / OfferedVCsSum do the same for VCs.
	AdmissibleVCsSum int64 `json:"admissible_vcs_sum"`
	OfferedVCsSum    int64 `json:"offered_vcs_sum"`
	// FootprintVCsSum and IdleVCsSum classify the offered VCs by live
	// state at decision time (the remainder were busy).
	FootprintVCsSum int64 `json:"footprint_vcs_sum"`
	IdleVCsSum      int64 `json:"idle_vcs_sum"`
	// EscapeDecisions counts decisions whose request set included the
	// escape VC; MinimalDecisions counts decisions that offered only
	// minimal-path ports.
	EscapeDecisions  int64 `json:"escape_decisions"`
	MinimalDecisions int64 `json:"minimal_decisions"`
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
// adaptiveness: offered ports over the minimal-path ceiling, in [0, 1].
// NaN-free: returns 0 when no decisions were recorded.
func (a *Anatomy) PortAdaptivenessExercised() float64 {
	if a.MinimalPortsSum == 0 {
		return 0
	}
	return float64(a.OfferedPortsSum) / float64(a.MinimalPortsSum)
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
		fmt.Fprintf(w, "  adaptiveness exercised: ports %.3f, vcs %.3f over %d decisions (escape offered %.1f%%, minimal progress %.1f%%)\n",
			a.PortAdaptivenessExercised(), a.VCAdaptivenessExercised(), a.Decisions,
			100*float64(a.EscapeDecisions)/float64(a.Decisions),
			100*float64(a.MinimalDecisions)/float64(a.Decisions))
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
		pair{"offered_ports_sum", a.OfferedPortsSum},
		pair{"admissible_vcs_sum", a.AdmissibleVCsSum},
		pair{"offered_vcs_sum", a.OfferedVCsSum},
		pair{"footprint_vcs_sum", a.FootprintVCsSum},
		pair{"idle_vcs_sum", a.IdleVCsSum},
		pair{"escape_decisions", a.EscapeDecisions},
		pair{"minimal_decisions", a.MinimalDecisions},
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

// AnatomySample is one point of the footprint-occupancy time series: the
// state of every network-port output VC in the fabric at one cycle.
type AnatomySample struct {
	Cycle int64 `json:"cycle"`
	// AllocatedVCs counts VCs currently held by a packet.
	AllocatedVCs int `json:"allocated_vcs"`
	// OwnedVCs counts VCs whose downstream buffer holds packets to some
	// destination (the live footprint state; owner set, possibly no
	// longer allocated).
	OwnedVCs int `json:"owned_vcs"`
	// IdleVCs counts fully drained, unallocated VCs.
	IdleVCs int `json:"idle_vcs"`
	// Trees is the number of distinct destinations owning at least one
	// VC — the count of live congestion trees; LargestTree is the VC
	// count of the biggest one (the paper's congestion-tree extent).
	Trees       int `json:"trees"`
	LargestTree int `json:"largest_tree"`
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
	period int64

	windowSet  bool
	start, end int64

	// inflight holds only measured packets (born inside the measurement
	// window); events for unknown packet IDs are ignored.
	inflight map[uint64]packetAnatomy

	agg     Anatomy
	samples []AnatomySample
	// sampleDropped counts occupancy samples discarded at the bound.
	sampleDropped int64
	// treeCounts is the per-destination owned-VC scratch counter for
	// sampling (slice-indexed: no map iteration anywhere near results).
	treeCounts []int
	treeTouch  []int
}

// NewAnatomyCollector returns a collector sampling occupancy every
// period cycles (DefaultAnatomyPeriod when <= 0), keeping at most
// DefaultAnatomySamples points.
func NewAnatomyCollector(period int64) *AnatomyCollector {
	if period <= 0 {
		period = DefaultAnatomyPeriod
	}
	return &AnatomyCollector{
		period:   period,
		inflight: make(map[uint64]packetAnatomy),
	}
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

// Samples returns the occupancy time series, oldest first.
func (a *AnatomyCollector) Samples() []AnatomySample { return a.samples }

// SamplesDropped returns occupancy samples discarded at the row bound.
func (a *AnatomyCollector) SamplesDropped() int64 { return a.sampleDropped }

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
	a.agg.OfferedPortsSum += int64(d.OfferedPorts)
	a.agg.AdmissibleVCsSum += int64(d.AdmissibleVCs)
	a.agg.OfferedVCsSum += int64(d.OfferedVCs)
	a.agg.FootprintVCsSum += int64(d.FootprintVCs)
	a.agg.IdleVCsSum += int64(d.IdleVCs)
	if d.EscapeRequested {
		a.agg.EscapeDecisions++
	}
	if d.MinimalProgress {
		a.agg.MinimalDecisions++
	}
}

// sample records one occupancy point: every network-port output VC in
// the fabric, classified idle / owned / allocated, plus the
// congestion-tree census (destinations owning VCs).
func (a *AnatomyCollector) sample(now int64, net *network.Network) {
	if len(a.samples) >= DefaultAnatomySamples {
		a.sampleDropped++
		return
	}
	if a.treeCounts == nil {
		a.treeCounts = make([]int, net.Nodes())
	}
	s := AnatomySample{Cycle: now}
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		for d := topo.East; d < topo.Local; d++ {
			idle := r.State().Idle[d]
			for v := 0; v < r.VCs(); v++ {
				ov := r.OutputVCSnapshot(d, v)
				if ov.Allocated {
					s.AllocatedVCs++
				}
				if idle>>uint(v)&1 != 0 {
					s.IdleVCs++
					continue
				}
				owner := ov.Owner
				if owner < 0 {
					continue
				}
				s.OwnedVCs++
				if a.treeCounts[owner] == 0 {
					a.treeTouch = append(a.treeTouch, owner)
				}
				a.treeCounts[owner]++
			}
		}
	}
	for _, dest := range a.treeTouch {
		s.Trees++
		if a.treeCounts[dest] > s.LargestTree {
			s.LargestTree = a.treeCounts[dest]
		}
		a.treeCounts[dest] = 0
	}
	a.treeTouch = a.treeTouch[:0]
	a.samples = append(a.samples, s)
}

// WriteSeriesCSV writes the occupancy time series:
//
//	cycle,allocated_vcs,owned_vcs,idle_vcs,trees,largest_tree
func (a *AnatomyCollector) WriteSeriesCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "cycle,allocated_vcs,owned_vcs,idle_vcs,trees,largest_tree"); err != nil {
		return err
	}
	for _, s := range a.samples {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d\n",
			s.Cycle, s.AllocatedVCs, s.OwnedVCs, s.IdleVCs, s.Trees, s.LargestTree); err != nil {
			return err
		}
	}
	return nil
}
