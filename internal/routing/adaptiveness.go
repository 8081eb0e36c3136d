package routing

import (
	"fmt"
	"strings"

	"nocsim/internal/topo"
)

// This file implements the two-level routing adaptiveness of Section 3.1:
// port adaptiveness P_adapt (Equation 1) and VC adaptiveness VC_adapt
// (Equation 2), plus the qualitative comparison of Table 1.

// PortAdaptiveness returns P_adapt(src, dest) for alg on mesh m: the ratio
// of minimal paths the algorithm may use to all minimal paths, computed by
// dynamic programming over the minimal quadrant using the algorithm's
// allowed output ports at every intermediate hop. For src == dest it
// returns 1.
func PortAdaptiveness(m topo.Mesh, alg Algorithm, src, dest int) float64 {
	if src == dest {
		return 1
	}
	total := m.MinimalPathCount(src, dest)
	allowed := countAllowedPaths(m, alg, src, dest, topo.Local, map[pathKey]int{})
	return float64(allowed) / float64(total)
}

type pathKey struct {
	node  int
	inDir topo.Direction
}

// countAllowedPaths counts minimal paths from cur to dest that respect the
// algorithm's allowed-port function. The arrival direction matters for
// turn models, so memoization keys on (node, inDir).
func countAllowedPaths(m topo.Mesh, alg Algorithm, cur, dest int, inDir topo.Direction, memo map[pathKey]int) int {
	if cur == dest {
		return 1
	}
	key := pathKey{cur, inDir}
	if n, ok := memo[key]; ok {
		return n
	}
	n := 0
	for _, d := range allowedPorts(m, alg, cur, dest, inDir) {
		next, ok := m.Neighbor(cur, d)
		if !ok {
			continue
		}
		n += countAllowedPaths(m, alg, next, dest, d.Opposite(), memo)
	}
	memo[key] = n
	return n
}

// allowedPorts returns the adaptive output ports alg permits at cur toward
// dest for a packet that arrived from inDir (escape-channel ports excluded
// unless they are also adaptive ports): the static per-hop choice set a
// decision picks its port from. An overlay allows its base's ports.
func allowedPorts(m topo.Mesh, alg Algorithm, cur, dest int, inDir topo.Direction) []topo.Direction {
	dx, hasX, dy, hasY := m.MinimalDirs(cur, dest)
	switch a := alg.(type) {
	case *DOR:
		return []topo.Direction{dorDir(m, cur, dest)}
	case *OddEven:
		dirs, n := a.allowedDirs(m, cur, dest, inDir)
		return dirs[:n]
	case *overlay:
		return allowedPorts(m, a.base, cur, dest, inDir)
	default:
		// Fully adaptive (DBAR, Footprint): every minimal port.
		var out []topo.Direction
		if hasX {
			out = append(out, dx)
		}
		if hasY {
			out = append(out, dy)
		}
		return out
	}
}

// MeanPortAdaptiveness averages P_adapt over all ordered node pairs with
// at least one hop, as a network-wide adaptivity figure.
func MeanPortAdaptiveness(m topo.Mesh, alg Algorithm) float64 {
	sum, n := 0.0, 0
	for s := 0; s < m.Nodes(); s++ {
		for d := 0; d < m.Nodes(); d++ {
			if s == d {
				continue
			}
			sum += PortAdaptiveness(m, alg, s, d)
			n++
		}
	}
	return sum / float64(n)
}

// VCAdaptiveness returns VC_adapt for a channel under alg with nVCs VCs
// per physical channel (Equation 2 and the Duato-specific case analysis of
// Section 3.1). escape reports whether the channel is an escape channel.
//
// Algorithms that pick VCs obliviously have zero VC adaptiveness: the
// packet cannot influence which VC it lands on. Footprint adapts over all
// adaptive VCs.
func VCAdaptiveness(alg Algorithm, nVCs int, escape bool) float64 {
	switch alg.(type) {
	case *Footprint:
		if escape {
			return 1
		}
		return float64(nVCs-1) / float64(nVCs)
	default:
		return 0
	}
}

// QualityRating is a qualitative grade in Table 1.
type QualityRating string

// Ratings used in Table 1.
const (
	Good QualityRating = "+"
	Fair QualityRating = "o"
	Poor QualityRating = "-"
	NA   QualityRating = "N/A"
)

// TableOneRow is one column of Table 1 (one algorithm's grades).
type TableOneRow struct {
	Algorithm          string
	PortAdapt          QualityRating
	VCAdapt            QualityRating
	NetworkCongestion  QualityRating
	EndpointCongestion QualityRating
	HoLBlocking        QualityRating
}

// TableOne reproduces the qualitative comparison of Table 1 for the
// algorithms implemented in this repository (DBAR, XORDET, Odd-Even,
// Footprint; RECN and CBCM are router-microarchitecture proposals outside
// a routing-algorithm library and are cited in the paper for context).
func TableOne() []TableOneRow {
	return []TableOneRow{
		{"dbar", Good, Poor, Good, Poor, Poor},
		{"xordet", NA, NA, Poor, Good, Fair},
		{"oddeven", Good, Poor, Fair, Poor, Poor},
		{"footprint", Good, Good, Fair, Fair, Good},
	}
}

// FormatTableOne renders TableOne as an aligned text table.
func FormatTableOne(rows []TableOneRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %-8s %-8s %-9s %-4s\n",
		"algorithm", "P_adapt", "VC_adapt", "network", "endpoint", "HoL")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-8s %-8s %-8s %-9s %-4s\n",
			r.Algorithm, r.PortAdapt, r.VCAdapt, r.NetworkCongestion, r.EndpointCongestion, r.HoLBlocking)
	}
	return b.String()
}
