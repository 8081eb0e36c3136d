package main

import (
	"nocsim/internal/network"
	"nocsim/internal/topo"
)

// routerCounts are the routers' public work counters summed over the
// fabric after a run.
type routerCounts struct {
	vcAllocFails, creditStalls, xbarGrants int64
}

func readRouterCounts(net *network.Network) routerCounts {
	var c routerCounts
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		c.vcAllocFails += r.VCAllocFailures()
		for d := topo.East; d <= topo.Local; d++ {
			c.creditStalls += r.CreditStalls(d)
			c.xbarGrants += r.CrossbarGrants(d)
		}
	}
	return c
}

// routerMetrics reports the three router phases of the cycle and the
// counts that explain them.
func routerMetrics(m metricSet, rounds []round) {
	cycles := allTracedCycles(rounds)
	var cycleNs int64
	var phase [numPhases]int64
	for ri := range rounds {
		for i := range rounds[ri].layers {
			p := rounds[ri].layers[i].probe
			cycleNs += p.cycleNs
			for ph := range phase {
				phase[ph] += p.phaseNs[ph]
			}
		}
	}
	m["router.route_compute_ns_per_cycle"] = float64(phase[network.PhaseRouteCompute]) / float64(cycles)
	m["router.vc_alloc_ns_per_cycle"] = float64(phase[network.PhaseVCAlloc]) / float64(cycles)
	m["router.switch_ns_per_cycle"] = float64(phase[network.PhaseSwitchAlloc]) / float64(cycles)
	m["router.vc_alloc_time_share"] = float64(phase[network.PhaseVCAlloc]) / float64(cycleNs)

	first := tracedCycles(rounds[0].layers)
	var c routerCounts
	for i := range rounds[0].layers {
		l := &rounds[0].layers[i]
		c.vcAllocFails += l.router.vcAllocFails
		c.creditStalls += l.router.creditStalls
		c.xbarGrants += l.router.xbarGrants
	}
	m["router.vcalloc_fail_per_kcycle"] = float64(c.vcAllocFails) / float64(first) * 1000
	m["router.credit_stall_per_kcycle"] = float64(c.creditStalls) / float64(first) * 1000
	m["router.xbar_grants_per_cycle"] = float64(c.xbarGrants) / float64(first)
}
