package main

import (
	"sort"

	"nocsim/internal/network"
)

const numPhases = network.NumPhases

// kindName names an aggregate span kind by the layer that owns the work.
func kindName(kind int) string {
	switch kind {
	case kindCycle:
		return "network.Step"
	case kindWorklist:
		return "network.worklist"
	case kindTick:
		return "injector.Tick"
	}
	ph := network.Phase(kind - kindPhase0)
	switch ph {
	case network.PhaseRouteCompute, network.PhaseVCAlloc, network.PhaseSwitchAlloc:
		return "router." + ph.String()
	case network.PhaseLinkTraversal, network.PhaseInjectEject:
		return "network." + ph.String()
	default:
		panic("benchmark: invalid span kind")
	}
}

// phaseProbe is the benchmark's network.PhaseProbe. It instruments every
// cycle: the time from BeginCycle to the first phase mark is the
// worklist rebuild, each mark closes the interval before it, and
// EndCycle closes the cycle.
type phaseProbe struct {
	net *network.Network
	smp *sampler

	cycles     int64
	cycleNs    int64
	worklistNs int64
	phaseNs    [numPhases]int64
	// inFlight sums the packets in flight at the top of every cycle.
	inFlight int64
	// steps holds every cycle's duration in ns.
	steps []int32

	t0, last int64
	cur      int
	sampling bool
}

func newPhaseProbe(net *network.Network, smp *sampler, maxCycles int64) *phaseProbe {
	return &phaseProbe{net: net, smp: smp, steps: make([]int32, 0, maxCycles)}
}

// BeginCycle implements network.PhaseProbe.
func (p *phaseProbe) BeginCycle(now int64) bool {
	p.sampling = now%sampleEvery == 0
	p.inFlight += int64(p.net.InFlight())
	p.cur = kindWorklist
	p.t0 = sinceStart()
	p.last = p.t0
	return true
}

// BeginPhase implements network.PhaseProbe.
func (p *phaseProbe) BeginPhase(ph network.Phase) {
	p.mark(sinceStart())
	p.cur = kindPhase0 + int(ph)
}

// EndCycle implements network.PhaseProbe.
func (p *phaseProbe) EndCycle() {
	t := sinceStart()
	p.mark(t)
	d := t - p.t0
	p.cycleNs += d
	p.cycles++
	p.steps = append(p.steps, int32(min(d, 1<<31-1)))
	if p.sampling {
		p.smp.spans = append(p.smp.spans, span{name: kindName(kindCycle), start: p.t0, end: t, parent: kindCycle})
	}
}

// mark closes the open interval at t.
func (p *phaseProbe) mark(t int64) {
	d := t - p.last
	if p.cur == kindWorklist {
		p.worklistNs += d
	} else {
		p.phaseNs[p.cur-kindPhase0] += d
	}
	if p.sampling {
		p.smp.spans = append(p.smp.spans, span{name: kindName(p.cur), start: p.last, end: t, parent: int32(p.cur)})
	}
	p.last = t
}

// networkMetrics reports the network layer: the endpoint and link phases,
// the worklist rebuild, the distribution of whole cycles, and the
// simulated events host time is normalised by.
func networkMetrics(m metricSet, rounds []round) {
	cycles := allTracedCycles(rounds)
	var worklist, link, endpoint int64
	steps := make([]float64, 0, cycles)
	var overhead []float64
	for ri := range rounds {
		for i := range rounds[ri].layers {
			p := rounds[ri].layers[i].probe
			worklist += p.worklistNs
			link += p.phaseNs[network.PhaseLinkTraversal]
			endpoint += p.phaseNs[network.PhaseInjectEject]
			for _, d := range p.steps {
				steps = append(steps, float64(d))
			}
		}
		// The probe's cost, op by op: the traced replica against its
		// untraced twin, which ran just before it.
		for i := range rounds[ri].layers {
			overhead = append(overhead,
				float64(rounds[ri].traced(i).wallNs())/float64(rounds[ri].plain(i).wallNs())-1)
		}
	}
	m["network.worklist_ns_per_cycle"] = float64(worklist) / float64(cycles)
	m["network.link_ns_per_cycle"] = float64(link) / float64(cycles)
	m["network.inject_eject_ns_per_cycle"] = float64(endpoint) / float64(cycles)
	sort.Float64s(steps)
	m["network.step_ns_p50"] = quantileSorted(steps, 0.50)
	m["network.step_ns_p99"] = quantileSorted(steps, 0.99)
	m["network.probe_overhead_share"] = median(overhead)

	first := tracedCycles(rounds[0].layers)
	var hops, inFlight int64
	for i := range rounds[0].layers {
		l := &rounds[0].layers[i]
		hops += l.outcome.golden.FlitHops
		inFlight += l.probe.inFlight
	}
	m["network.flit_hops_per_cycle"] = float64(hops) / float64(first)
	m["network.in_flight_mean"] = float64(inFlight) / float64(first)
}
