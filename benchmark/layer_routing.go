package main

import (
	"math/rand"

	"nocsim"
	"nocsim/internal/routing"
	"nocsim/internal/sim"
	"nocsim/internal/topo"
)

// routeTuples is the number of (cur, dest, inDir) decisions a routing
// fixture cycles through.
const routeTuples = 4096

// frozenFabric steps a simulation of op to cycle cycles and returns it;
// its routers are then the View the routing fixtures read. Route is
// pure, so the state stays frozen.
func frozenFabric(o *op, cycles int) (*nocsim.Simulation, error) {
	cfg, injectors, err := o.replica()
	if err != nil {
		return nil, err
	}
	s, err := sim.New(cfg, injectors...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cycles; i++ {
		s.Step()
	}
	return s, nil
}

// routeContexts draws the decisions: any router, any other destination,
// and an input port that exists at that router (or the local port, for a
// freshly injected packet).
func routeContexts(rng *rand.Rand, s *nocsim.Simulation) []routing.Context {
	net := s.Network()
	m := net.Mesh()
	ctxs := make([]routing.Context, routeTuples)
	for i := range ctxs {
		cur := rng.Intn(m.Nodes())
		dest := rng.Intn(m.Nodes() - 1)
		if dest >= cur {
			dest++
		}
		in := topo.Direction(rng.Intn(topo.NumPorts))
		if _, ok := m.Neighbor(cur, in); !ok {
			in = topo.Local
		}
		ctxs[i] = routing.Context{Mesh: m, Cur: cur, Dest: dest, InDir: in, View: net.Router(cur), Rand: rng}
	}
	return ctxs
}

// routingFixtures times Algorithm.Route per algorithm on the live router
// state of a fabric under the uniform_mid load, and for the two adaptive
// algorithms also under the saturated hotspot_sat load.
func routingFixtures(m metricSet, fx fixtureBudget) error {
	const frozenAt = 1000
	for _, load := range []struct {
		workload, metric string
		algorithms       []string
	}{
		{"uniform_mid", "routing.route_ns.", []string{"footprint", "dbar", "oddeven", "dor"}},
		{"hotspot_sat", "routing.route_sat_ns.", pairAlgorithms},
	} {
		w, err := workloadByName(load.workload)
		if err != nil {
			return err
		}
		ops, err := w.build(sim.DeriveSeed(fx.seed, "fixture/routing/"+load.workload))
		if err != nil {
			return err
		}
		s, err := frozenFabric(&ops[0], frozenAt)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(sim.DeriveSeed(fx.seed, "fixture/routing/tuples/"+load.workload)))
		ctxs := routeContexts(rng, s)
		for _, name := range load.algorithms {
			alg, err := routing.New(name)
			if err != nil {
				return err
			}
			var reqs []routing.Request
			if load.workload == "uniform_mid" && (name == "footprint" || name == "dbar") {
				// One pass over the tuples for the request count, with its
				// own tie-break stream so that the count repeats.
				draws := rand.New(rand.NewSource(sim.DeriveSeed(fx.seed, "fixture/routing/count")))
				total := 0
				for _, ctx := range ctxs {
					ctx.Rand = draws
					reqs = alg.Route(&ctx, reqs[:0])
					total += len(reqs)
				}
				m["routing.requests_per_route."+name] = float64(total) / routeTuples
			}
			next := 0
			m[load.metric+name] = fx.timeLoop(256, func() {
				reqs = alg.Route(&ctxs[next], reqs[:0])
				next = (next + 1) % routeTuples
			})
		}
	}
	return nil
}
