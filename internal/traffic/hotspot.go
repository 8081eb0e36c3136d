package traffic

import "nocsim/internal/topo"

// HotspotFlows returns the eight persistent flows of Table 3 for an 8×8
// mesh: two sources oversubscribe each of the four hotspot endpoints
// (n63, n56, n0, n7), modelling memory-controller traffic.
func HotspotFlows() Permutation {
	return Permutation{
		Flows: map[int]int{
			0:  63, // f1
			32: 63, // f2
			7:  56, // f3
			39: 56, // f4
			63: 0,  // f5
			31: 0,  // f6
			56: 7,  // f7
			24: 7,  // f8
		},
	}
}

// BackgroundNodes returns the nodes of mesh m not participating in the
// hotspot flows (neither as source nor destination); they inject the
// uniform background traffic whose latency Figure 9 measures.
func BackgroundNodes(m topo.Mesh) []int {
	flows := HotspotFlows().Flows
	used := map[int]bool{}
	for s, d := range flows {
		used[s] = true
		used[d] = true
	}
	var out []int
	for n := 0; n < m.Nodes(); n++ {
		if !used[n] {
			out = append(out, n)
		}
	}
	return out
}
