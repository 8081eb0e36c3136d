package main

import (
	"math/rand"
	"runtime"

	"nocsim/internal/alloc"
	"nocsim/internal/sim"
)

// vcRequestSet draws n requests over a size×size allocator with mixed
// priorities.
func vcRequestSet(rng *rand.Rand, size, n int) []alloc.VCRequest {
	reqs := make([]alloc.VCRequest, n)
	for i := range reqs {
		reqs[i] = alloc.VCRequest{
			Requester: rng.Intn(size),
			Resource:  rng.Intn(size),
			Pri:       alloc.Lowest + alloc.Priority(rng.Intn(int(alloc.Highest-alloc.Lowest)+1)),
		}
	}
	return reqs
}

// allocFixtures times the separable VC allocator on a router-sized
// problem (5 ports × 10 VCs on each side) at three request densities,
// and the two arbiters the switch allocator is built from.
func allocFixtures(m metricSet, fx fixtureBudget) {
	const size = 50
	rng := rand.New(rand.NewSource(sim.DeriveSeed(fx.seed, "fixture/alloc")))
	va := alloc.NewVCAllocator(size, size)
	for _, set := range []struct {
		name string
		n    int
	}{{"alloc.vcalloc_sparse_ns", 4}, {"alloc.vcalloc_mid_ns", 60}, {"alloc.vcalloc_sat_ns", 400}} {
		reqs := vcRequestSet(rng, size, set.n)
		m[set.name] = fx.timeLoop(64, func() { va.Allocate(reqs) })
	}

	// The saturated set once more on a fresh allocator, for the counts:
	// they depend on the round-robin state, so they start from a known one.
	sat := vcRequestSet(rng, size, 400)
	va = alloc.NewVCAllocator(size, size)
	va.Allocate(sat)
	const calls = 1000
	grants := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		grants += len(va.Allocate(sat))
	}
	runtime.ReadMemStats(&after)
	m["alloc.vcalloc_sat_grant_share"] = float64(grants) / float64(calls*len(sat))
	m["alloc.vcalloc_allocs_per_call"] = float64(after.Mallocs-before.Mallocs) / calls

	// The router's arbiters are one per port, over its VCs.
	const vcs = 10
	requests := make([]bool, vcs)
	priorities := make([]alloc.Priority, vcs)
	for i := range requests {
		requests[i] = rng.Intn(2) == 0
		priorities[i] = alloc.Priority(rng.Intn(int(alloc.Highest) + 1))
	}
	rr := alloc.NewRoundRobin(vcs)
	m["alloc.rr_arbitrate_ns"] = fx.timeLoop(256, func() { rr.Arbitrate(requests) })
	prr := alloc.NewPriorityRoundRobin(vcs)
	m["alloc.prr_arbitrate_ns"] = fx.timeLoop(256, func() { prr.Arbitrate(priorities) })
}
