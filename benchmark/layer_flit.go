package main

import (
	"nocsim/internal/flit"
)

// flitMetrics reports the arena's own accounting of the traced ops: how
// much of the flit and packet demand was served from the free-list, and
// the largest live flit set any op reached.
func flitMetrics(m metricSet, rounds []round) {
	var allocs, reused uint64
	highWater := 0
	for i := range rounds[0].layers {
		a := rounds[0].layers[i].arena
		allocs += a.Flits.Allocs + a.Packets.Allocs
		reused += a.Flits.Reused + a.Packets.Reused
		highWater = max(highWater, a.Flits.HighWater)
	}
	m["flit.arena_reuse_share"] = float64(reused) / float64(allocs)
	m["flit.arena_high_water"] = float64(highWater)
}

// flitFixtures times one NewFlit plus FreeFlit on a warm arena.
func flitFixtures(m metricSet, fx fixtureBudget) {
	a := flit.NewArena()
	m["flit.arena_pair_ns"] = fx.timeLoop(1024, func() { a.FreeFlit(a.NewFlit()) })
}
