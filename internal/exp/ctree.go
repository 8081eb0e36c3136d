package exp

import (
	"fmt"
	"strings"

	"nocsim/internal/sim"
	"nocsim/internal/traffic"
)

// TreeAnatomy is one algorithm's congestion-tree shape in the Section 2
// example (Figure 2): the tree rooted at the oversubscribed endpoint n13
// of a 4×4 mesh under the four-flow permutation.
type TreeAnatomy struct {
	Algorithm string
	Endpoint  sim.AverageTree
}

// TreeStudy is the Figure 2 comparison across algorithms.
type TreeStudy struct {
	Algorithms []TreeAnatomy
}

// Format renders Figure 2's qualitative comparison quantitatively: number
// of branches, total VCs and branch thickness of the endpoint congestion
// tree.
func (t TreeStudy) Format() string {
	var b strings.Builder
	b.WriteString("Figure 2 — endpoint congestion tree at n13 (4x4 mesh, 4 VCs, Section 2 flows)\n")
	fmt.Fprintf(&b, "%-16s %10s %10s %14s\n", "algorithm", "branches", "VCs", "max thickness")
	for _, ta := range t.Algorithms {
		fmt.Fprintf(&b, "%-16s %10.1f %10.1f %14.1f\n",
			ta.Algorithm, ta.Endpoint.Links, ta.Endpoint.VCs, ta.Endpoint.MaxThickness)
	}
	return b.String()
}

// Figure2 reruns the Section 2 example: flows n0→n10, n1→n15 (network
// congestion on the top row) and n4→n13, n12→n13 (endpoint congestion at
// n13), plus light uniform background so the spreading behaviour of each
// algorithm is visible, with time-averaged congestion-tree shapes.
func Figure2(p Profile, algorithms []string) (TreeStudy, error) {
	if algorithms == nil {
		algorithms = []string{"dor", "dbar", "dor+xordet", "footprint"}
	}
	anatomies, err := sim.Map(p.Jobs, len(algorithms), func(i int) (TreeAnatomy, error) {
		alg := algorithms[i]
		cfg := p.Base
		cfg.Width, cfg.Height = 4, 4
		cfg.VCs = 4
		cfg.Algorithm = alg
		// One shared seed key: every algorithm sees the same traffic.
		cfg = sim.Identify(cfg, "Figure 2 "+alg, "figure2").Apply(cfg)

		flows := traffic.Permutation{Flows: map[int]int{
			0: 10, 1: 15, 4: 13, 12: 13,
		}}
		hot := &traffic.Generator{Nodes: []int{0, 1, 4, 12}, Pattern: flows, Rate: 0.9}
		bg := &traffic.Generator{
			Nodes:   []int{2, 3, 5, 6, 7, 8, 9, 11, 14},
			Pattern: traffic.Uniform{Nodes: 16},
			Rate:    0.1,
		}
		s, err := sim.New(cfg, hot, bg)
		if err != nil {
			return TreeAnatomy{}, err
		}
		sampler := sim.NewTreeSampler(13)
		warm := cfg.WarmupCycles
		total := warm + cfg.MeasureCycles
		for c := int64(0); c < total; c++ {
			s.Step()
			if c >= warm {
				sampler.Sample(s.Network())
			}
		}
		return TreeAnatomy{Algorithm: alg, Endpoint: sampler.Average()}, nil
	})
	if err != nil {
		return TreeStudy{}, err
	}
	return TreeStudy{Algorithms: anatomies}, nil
}
