package exp

import "nocsim/internal/sim"

// versus is the comparison of Figures 7–10: Footprint against DBAR.
var versus = [2]string{"footprint", "dbar"}

// Pair is one cell of a Footprint-vs-DBAR comparison: what the cell's
// run made under each algorithm.
type Pair[T any] struct{ FP, DB T }

// paired runs run(cell, alg) for every cell under both algorithms of
// versus on the profile's worker pool, as one flat list so that nested
// grids never stack pools, and returns one Pair per cell in cell order.
// run must derive its seed from the cell and never from the algorithm
// (sim.RunLoad, sim.HotspotRun and RunTracePair key it on the traffic
// cell), so the two runs of a pair start from the same seed. They do
// not see the same packets throughout: the traffic generators and the
// routers' tie-breaks draw on one stream, so the offered traffic
// diverges at the first random tie-break the algorithms take
// differently.
func paired[C, R any](p Profile, cells []C, run func(cell C, alg string) (R, error)) ([]Pair[R], error) {
	rs, err := sim.Map(p.Jobs, len(cells)*len(versus), func(i int) (R, error) {
		return run(cells[i/len(versus)], versus[i%len(versus)])
	})
	if err != nil {
		return nil, err
	}
	out := make([]Pair[R], len(cells))
	for i := range out {
		out[i] = Pair[R]{FP: rs[2*i], DB: rs[2*i+1]}
	}
	return out, nil
}
