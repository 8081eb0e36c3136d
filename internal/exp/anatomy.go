package exp

import (
	"fmt"
	"strings"

	"nocsim/internal/sim"
	"nocsim/internal/traffic"
)

// AnatomyAlgorithms is the default algorithm set of the anatomy study:
// the four base routing configurations whose adaptiveness regimes the
// paper contrasts (fully adaptive with footprint regulation, fully
// adaptive with DBAR selection, partially adaptive, deterministic).
func AnatomyAlgorithms() []string {
	return []string{"footprint", "dbar", "oddeven", "dor"}
}

// Anatomy sweeps offered load × algorithm under the named pattern with
// the latency-anatomy collector enabled: the runtime counterpart of the
// paper's Section 3.1 analysis. Where Figure 5 shows *that* an algorithm
// saturates, the anatomy shows *why* — which VC class absorbs the growing
// wait, and how much of the static adaptiveness each algorithm actually
// exercises as congestion builds. algs defaults to AnatomyAlgorithms.
// Unlike the figure sweeps there is no saturation early-exit: the
// saturated regime is exactly where the anatomy is most interesting.
// The panel it returns is read with FormatAnatomy.
func Anatomy(p Profile, pattern string, algs []string) (CurveSet, error) {
	if algs == nil {
		algs = AnatomyAlgorithms()
	}
	// Flatten the (algorithm × rate) grid: every cell is one independent
	// run through the shared worker pool.
	pts, err := sim.Map(p.Jobs, len(algs)*len(p.Rates), func(i int) (sim.SweepPoint, error) {
		rate := p.Rates[i%len(p.Rates)]
		cfg := curveConfig(p, "anatomy", pattern, algs[i/len(p.Rates)])
		cfg.Obs.Anatomy = true
		res, err := sim.RunLoad(cfg, pattern, traffic.FixedSize(1), rate)
		if err != nil {
			return sim.SweepPoint{}, fmt.Errorf("exp: %s rate=%.2f: %w", cfg.RunLabel, rate, err)
		}
		return sim.SweepPoint{Rate: rate, Result: res}, nil
	})
	if err != nil {
		return CurveSet{}, err
	}
	out := CurveSet{Figure: "anatomy", Pattern: pattern}
	for ai, alg := range algs {
		out.Curves = append(out.Curves, Curve{
			Algorithm: alg,
			Points:    pts[ai*len(p.Rates) : (ai+1)*len(p.Rates)],
		})
	}
	return out, nil
}

// FormatAnatomy renders an Anatomy panel's two families of curves:
// exercised adaptiveness vs. load (one ports|vcs column per algorithm)
// and, per algorithm, the latency composition vs. load (component shares
// of the end-to-end latency).
func (s CurveSet) FormatAnatomy() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latency anatomy — %s traffic\n", s.Pattern)

	b.WriteString("adaptiveness exercised vs load (ports|vcs, sat = unstable)\n")
	fmt.Fprintf(&b, "%-8s", "rate")
	for _, c := range s.Curves {
		fmt.Fprintf(&b, "%16s", c.Algorithm)
	}
	b.WriteString("\n")
	for i := 0; i < s.maxPoints(); i++ {
		fmt.Fprintf(&b, "%-8.2f", s.rateAt(i))
		for _, c := range s.Curves {
			if i >= len(c.Points) || c.Points[i].Result.Anatomy == nil {
				fmt.Fprintf(&b, "%16s", "-")
				continue
			}
			r := c.Points[i].Result
			cell := fmt.Sprintf("%.2f|%.2f", r.Anatomy.PortAdaptivenessExercised(),
				r.Anatomy.VCAdaptivenessExercised())
			if !r.Stable {
				cell += "*"
			}
			fmt.Fprintf(&b, "%16s", cell)
		}
		b.WriteString("\n")
	}

	for _, c := range s.Curves {
		fmt.Fprintf(&b, "latency composition vs load — %s (%% of end-to-end latency)\n", c.Algorithm)
		header := false
		for _, pt := range c.Points {
			a := pt.Result.Anatomy
			if a == nil || a.Packets == 0 {
				continue
			}
			comps := a.Components()
			if !header {
				fmt.Fprintf(&b, "%-8s", "rate")
				for _, comp := range comps {
					fmt.Fprintf(&b, "%20s", comp.Name)
				}
				fmt.Fprintf(&b, "%10s\n", "lat")
				header = true
			}
			fmt.Fprintf(&b, "%-8.2f", pt.Rate)
			for _, comp := range comps {
				share := 0.0
				if a.LatencyCycles > 0 {
					share = 100 * float64(comp.Cycles) / float64(a.LatencyCycles)
				}
				fmt.Fprintf(&b, "%19.1f%%", share)
			}
			fmt.Fprintf(&b, "%10.1f\n", float64(a.LatencyCycles)/float64(a.Packets))
		}
	}
	return b.String()
}
