package main

// simMetrics reports the sim layer: what building a Simulation costs,
// what Run spends outside the cycles and injector ticks it drives, how
// well the worker pool of sim.Map was used, and the simulated statistics
// no change to the simulator's speed may move.
func simMetrics(m metricSet, rounds []round, jobs int, tree *spanTree) {
	var newMs, util, straggler, tailIdle []float64
	for ri := range rounds {
		r := &rounds[ri]
		for i := range r.layers {
			newMs = append(newMs, float64(r.layers[i].newNs)/1e6)
		}
		// The pool ran every op of the round, untraced and traced alike.
		var busy, longest, lastStart int64
		for i := range r.both.ops {
			out := &r.both.ops[i]
			busy += out.wallNs()
			longest = max(longest, out.wallNs())
			lastStart = max(lastStart, out.start)
		}
		// When the last op starts the queue is empty, so every op still
		// running then is the last one of its worker: from its end to the
		// end of the pass that worker idles.
		var idle int64
		for i := range r.both.ops {
			if end := r.both.ops[i].end; end >= lastStart {
				idle += r.both.end - end
			}
		}
		capacity := float64(jobs) * float64(r.both.end-r.both.start)
		util = append(util, float64(busy)/capacity)
		straggler = append(straggler, float64(longest)/(float64(busy)/float64(len(r.both.ops))))
		tailIdle = append(tailIdle, float64(idle)/capacity)
	}
	m["sim.new_ms"] = median(newMs)
	m["sim.run_self_share"] = selfShare(tree.spans, "sim.Run")
	m["sim.map_worker_util"] = median(util)
	m["sim.map_straggler_ratio"] = median(straggler)
	m["sim.map_tail_idle_share"] = median(tailIdle)

	var latency, accepted float64
	unstable := 0
	first := rounds[0].layers
	for i := range first {
		latency += first[i].latency
		accepted += first[i].accepted
		if !first[i].outcome.golden.Stable {
			unstable++
		}
	}
	m["sim.latency_cycles_mean"] = latency / float64(len(first))
	m["sim.accepted_flits_per_node_cycle"] = accepted / float64(len(first))
	m["sim.unstable_share"] = float64(unstable) / float64(len(first))
}
