package main

import (
	"fmt"
	"math/rand"
	"sort"

	"nocsim"
	"nocsim/internal/flit"
	"nocsim/internal/sim"
	"nocsim/internal/topo"
	"nocsim/internal/traffic"
)

// timedInjector times every Tick of the injector it wraps. It forwards
// the two optional seams an injector may implement, so that the wrapped
// simulation is the same simulation: UseArena (packets come from the
// network's arena) and OnEject (a trace player's dependencies).
type timedInjector struct {
	inner nocsim.Injector
	smp   *sampler
	ns    int64
	ticks int64
}

// Init implements sim.Injector.
func (t *timedInjector) Init(m topo.Mesh, rng *rand.Rand) { t.inner.Init(m, rng) }

// Tick implements sim.Injector.
func (t *timedInjector) Tick(now int64, offer func(*flit.Packet)) {
	t0 := sinceStart()
	t.inner.Tick(now, offer)
	t1 := sinceStart()
	t.ns += t1 - t0
	t.ticks++
	if now%sampleEvery == 0 {
		t.smp.spans = append(t.smp.spans, span{name: kindName(kindTick), start: t0, end: t1, parent: int32(kindTick)})
	}
}

// UseArena implements sim.ArenaUser.
func (t *timedInjector) UseArena(a *flit.Arena) {
	if au, ok := t.inner.(sim.ArenaUser); ok {
		au.UseArena(a)
	}
}

// OnEject implements sim.EjectObserver.
func (t *timedInjector) OnEject(p *flit.Packet) {
	if eo, ok := t.inner.(sim.EjectObserver); ok {
		eo.OnEject(p)
	}
}

// hotspotReplica returns the config and the two generators
// sim.HotspotRun assembles for one rate point: Table 3's flows at hot
// over uniform background traffic at bg, under the run identity
// HotspotRun derives.
func hotspotReplica(cfg nocsim.Config, bg, hot float64) (nocsim.Config, []nocsim.Injector, error) {
	id := sim.Identify(cfg,
		fmt.Sprintf("%s hot=%.2f", cfg.Algorithm, hot),
		fmt.Sprintf("hotspot/bg=%.6f/hot=%.6f", bg, hot))
	cfg = id.Apply(cfg)
	flows := traffic.HotspotFlows()
	sources := make([]int, 0, len(flows.Flows))
	for s := range flows.Flows {
		sources = append(sources, s)
	}
	sort.Ints(sources)
	return cfg, []nocsim.Injector{
		&traffic.Generator{Nodes: sources, Pattern: flows, Rate: hot, Class: flit.ClassHotspot},
		&traffic.Generator{
			Nodes:   traffic.BackgroundNodes(cfg.Mesh()),
			Pattern: traffic.Uniform{Nodes: cfg.Mesh().Nodes()},
			Rate:    bg,
			Class:   flit.ClassBackground,
		},
	}, nil
}

// trafficMetrics reports what the injectors cost per cycle and how many
// packets they made. On the trace workload the injector is the trace
// player; its own fixture metric is trace.player_tick_ns_per_cycle.
func trafficMetrics(m metricSet, rounds []round) {
	var tickNs int64
	for ri := range rounds {
		for i := range rounds[ri].layers {
			tickNs += rounds[ri].layers[i].tickNs
		}
	}
	m["traffic.tick_ns_per_cycle"] = float64(tickNs) / float64(allTracedCycles(rounds))

	// Every injector takes its packets from the arena, so the arena's
	// allocation count is the packet count.
	var packets uint64
	for i := range rounds[0].layers {
		packets += rounds[0].layers[i].arena.Packets.Allocs
	}
	m["traffic.packets_per_kcycle"] = float64(packets) / float64(tracedCycles(rounds[0].layers)) * 1000
}
