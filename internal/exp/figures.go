package exp

import (
	"fmt"
	"strings"

	"nocsim/internal/flit"
	"nocsim/internal/sim"
	"nocsim/internal/stats"
	"nocsim/internal/traffic"
)

// SyntheticAlgorithms are the seven routing configurations of Figures 5
// and 6.
func SyntheticAlgorithms() []string {
	return []string{"footprint", "dbar", "oddeven", "dor", "dbar+xordet", "oddeven+xordet", "dor+xordet"}
}

// SyntheticPatterns are the three traffic patterns of Figures 5–8.
func SyntheticPatterns() []string { return []string{"uniform", "transpose", "shuffle"} }

// Curve is one algorithm's latency-throughput curve.
type Curve struct {
	Algorithm string
	Points    []sim.SweepPoint
}

// SaturationFromCurve returns the highest accepted throughput among
// stable, criterion-passing points — the saturation throughput read off a
// latency-throughput curve.
func SaturationFromCurve(c Curve) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	zero := c.Points[0].Result.AvgLatency(flit.ClassBackground)
	best := 0.0
	for _, p := range c.Points {
		if sim.Saturated(p.Result, zero) {
			continue
		}
		if p.Result.Accepted > best {
			best = p.Result.Accepted
		}
	}
	return best
}

// CurveSet is one traffic pattern's family of curves (one panel of
// Figure 5 or 6).
type CurveSet struct {
	Figure  string
	Pattern string
	Curves  []Curve
}

// Runs returns every simulation of the panel: curve by curve, each in
// rate order.
func (cs CurveSet) Runs() []*sim.Result {
	var runs []*sim.Result
	for _, c := range cs.Curves {
		for _, pt := range c.Points {
			runs = append(runs, pt.Result)
		}
	}
	return runs
}

// maxPoints is the row count of the panel's tables: the longest curve.
func (cs CurveSet) maxPoints() int {
	n := 0
	for _, c := range cs.Curves {
		n = max(n, len(c.Points))
	}
	return n
}

// rateAt is the rate of row i, read off the first curve that reaches it.
func (cs CurveSet) rateAt(i int) float64 {
	for _, c := range cs.Curves {
		if i < len(c.Points) {
			return c.Points[i].Rate
		}
	}
	return 0
}

// Format renders the panel as the paper's series: one row per rate with
// one latency column per algorithm, followed by the saturation summary.
func (cs CurveSet) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s traffic\n", cs.Figure, cs.Pattern)
	fmt.Fprintf(&b, "%-8s", "rate")
	for _, c := range cs.Curves {
		fmt.Fprintf(&b, "%16s", c.Algorithm)
	}
	b.WriteString("\n")
	for i := 0; i < cs.maxPoints(); i++ {
		fmt.Fprintf(&b, "%-8.2f", cs.rateAt(i))
		for _, c := range cs.Curves {
			if i >= len(c.Points) {
				fmt.Fprintf(&b, "%16s", "sat")
				continue
			}
			r := c.Points[i].Result
			zero := c.Points[0].Result.AvgLatency(flit.ClassBackground)
			if sim.Saturated(r, zero) {
				fmt.Fprintf(&b, "%16s", "sat")
			} else {
				fmt.Fprintf(&b, "%16.1f", r.AvgLatency(flit.ClassBackground))
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-8s", "satTP")
	for _, c := range cs.Curves {
		fmt.Fprintf(&b, "%16.3f", SaturationFromCurve(c))
	}
	b.WriteString("\n")
	return b.String()
}

// Figure5 regenerates one panel of Figure 5: latency-throughput curves of
// all seven algorithms under the named pattern with single-flit packets.
func Figure5(p Profile, pattern string) (CurveSet, error) {
	return curveSet(p, "Figure 5", pattern, traffic.FixedSize(1), SyntheticAlgorithms())
}

// Figure6 regenerates one panel of Figure 6: as Figure 5 with packet
// sizes uniform in 1..6 flits.
func Figure6(p Profile, pattern string) (CurveSet, error) {
	return curveSet(p, "Figure 6", pattern, traffic.UniformSize(1, 6), SyntheticAlgorithms())
}

// curveConfig is the base config of one curve of a panel, labelled
// "<figure> <pattern>/<alg>"; sim.RunLoad tags each run with its rate.
func curveConfig(p Profile, figure, pattern, alg string) sim.Config {
	cfg := p.BaseConfig()
	cfg.Algorithm = alg
	cfg.RunLabel = fmt.Sprintf("%s %s/%s", figure, pattern, alg)
	return cfg
}

// curveSet fans the figure's algorithms out to the worker pool — one
// curve per worker — while each curve's rates stay sequential: the
// early-exit below needs the previous points' saturation verdicts, and
// a bisection-free curve is cheap enough that curve-level parallelism
// already covers the grid.
func curveSet(p Profile, figure, pattern string, size traffic.SizeFn, algs []string) (CurveSet, error) {
	cs := CurveSet{Figure: figure, Pattern: pattern}
	curves, err := sim.Map(p.Jobs, len(algs), func(i int) (Curve, error) {
		cfg := curveConfig(p, figure, pattern, algs[i])
		var pts []sim.SweepPoint
		var zero float64
		saturated := 0
		for _, rate := range p.Rates {
			res, err := sim.RunLoad(cfg, pattern, size, rate)
			if err != nil {
				return Curve{}, fmt.Errorf("exp: %s: %w", cfg.RunLabel, err)
			}
			pts = append(pts, sim.SweepPoint{Rate: rate, Result: res})
			if zero == 0 {
				zero = res.AvgLatency(flit.ClassBackground)
			}
			// Deeply saturated points cost a full drain budget each and
			// add nothing to the curve: stop after two in a row.
			if sim.Saturated(res, zero) {
				if saturated++; saturated >= 2 {
					break
				}
			} else {
				saturated = 0
			}
		}
		return Curve{Algorithm: algs[i], Points: pts}, nil
	})
	if err != nil {
		return CurveSet{}, err
	}
	cs.Curves = curves
	return cs, nil
}

// bisect is the run of one cell of Figures 7 and 8: the saturation
// search of cfg under alg with single-flit packets, labelled
// "<figure> <pattern>/<alg> <cell>".
func bisect(p Profile, cfg sim.Config, figure, pattern, alg, cell string) (*sim.SaturationResult, error) {
	cfg.Algorithm = alg
	cfg.RunLabel = fmt.Sprintf("%s %s/%s %s", figure, pattern, alg, cell)
	return sim.SaturationThroughput(cfg, pattern, traffic.FixedSize(1), p.Tol)
}

// searchRuns flattens the probes of a grid of search pairs: cell by
// cell, Footprint's search before DBAR's.
func searchRuns(searches []Pair[*sim.SaturationResult]) []*sim.Result {
	var runs []*sim.Result
	for _, s := range searches {
		runs = append(append(runs, s.FP.Runs...), s.DB.Runs...)
	}
	return runs
}

// VCSweep is one panel of Figure 7: Footprint's and DBAR's saturation
// searches at each VC count.
type VCSweep struct {
	Pattern  string
	VCs      []int
	Searches []Pair[*sim.SaturationResult] // one per VC count
}

// Runs returns every simulation of the panel: the probes of each
// search, VC count by VC count, Footprint's before DBAR's.
func (v VCSweep) Runs() []*sim.Result { return searchRuns(v.Searches) }

// Format renders the panel with Footprint's gain over DBAR per VC count.
func (v VCSweep) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — %s traffic (saturation throughput, flits/node/cycle)\n", v.Pattern)
	fmt.Fprintf(&b, "%-6s %12s %12s %8s\n", "VCs", "footprint", "dbar", "gain")
	for i, s := range v.Searches {
		fp, db := s.FP.Throughput, s.DB.Throughput
		fmt.Fprintf(&b, "%-6d %12.3f %12.3f %+7.1f%%\n", v.VCs[i], fp, db, stats.Ratio(fp-db, db)*100)
	}
	return b.String()
}

// Figure7 regenerates one panel of Figure 7: Footprint vs DBAR saturation
// throughput as the VC count varies. Every (VC count, algorithm) cell is
// an independent bisection; the grid runs in parallel across cells while
// each bisection stays sequential internally.
func Figure7(p Profile, pattern string, vcCounts []int) (VCSweep, error) {
	if vcCounts == nil {
		vcCounts = []int{2, 4, 8, 16}
	}
	searches, err := paired(p, vcCounts, func(vcs int, alg string) (*sim.SaturationResult, error) {
		cfg := p.BaseConfig()
		cfg.VCs = vcs
		return bisect(p, cfg, "Figure 7", pattern, alg, fmt.Sprintf("vcs=%d", vcs))
	})
	if err != nil {
		return VCSweep{}, err
	}
	return VCSweep{Pattern: pattern, VCs: vcCounts, Searches: searches}, nil
}

// ScaleCell is one bar group of Figure 8: a mesh size and a pattern.
type ScaleCell struct {
	Width, Height int
	Pattern       string
}

// ScaleStudy is the whole of Figure 8.
type ScaleStudy struct {
	Cells    []ScaleCell
	Searches []Pair[*sim.SaturationResult] // one per cell
}

// Runs returns every simulation of the study: the probes of each
// search, cell by cell, Footprint's before DBAR's.
func (s ScaleStudy) Runs() []*sim.Result { return searchRuns(s.Searches) }

// Format renders Figure 8's bars: DBAR's saturation throughput
// normalized to Footprint's.
func (s ScaleStudy) Format() string {
	var b strings.Builder
	b.WriteString("Figure 8 — DBAR throughput normalized to Footprint\n")
	fmt.Fprintf(&b, "%-8s %-10s %12s %12s %12s\n", "mesh", "pattern", "footprint", "dbar", "dbar/fp")
	for i, c := range s.Cells {
		fp, db := s.Searches[i].FP.Throughput, s.Searches[i].DB.Throughput
		fmt.Fprintf(&b, "%dx%-6d %-10s %12.3f %12.3f %12.2f\n",
			c.Width, c.Height, c.Pattern, fp, db, stats.Ratio(db, fp))
	}
	return b.String()
}

// Figure8 regenerates Figure 8: saturation throughput of DBAR normalized
// to Footprint on 4×4 and 16×16 meshes (VC count held at the baseline).
// The (mesh, pattern, algorithm) cells bisect independently in parallel.
func Figure8(p Profile, sizes [][2]int) (ScaleStudy, error) {
	if sizes == nil {
		sizes = [][2]int{{4, 4}, {16, 16}}
	}
	var cells []ScaleCell
	for _, wh := range sizes {
		for _, pattern := range SyntheticPatterns() {
			cells = append(cells, ScaleCell{wh[0], wh[1], pattern})
		}
	}
	searches, err := paired(p, cells, func(c ScaleCell, alg string) (*sim.SaturationResult, error) {
		cfg := p.BaseConfig()
		cfg.Width, cfg.Height = c.Width, c.Height
		return bisect(p, cfg, "Figure 8", c.Pattern, alg, fmt.Sprintf("%dx%d", c.Width, c.Height))
	})
	if err != nil {
		return ScaleStudy{}, err
	}
	return ScaleStudy{Cells: cells, Searches: searches}, nil
}

// HotspotStudy is Figure 9: Footprint's and DBAR's background latency
// at each hotspot rate.
type HotspotStudy struct {
	BackgroundRate float64
	Rates          []float64
	Points         []Pair[sim.HotspotPoint] // one per rate
}

// Runs returns every simulation of the figure: Footprint's curve, then
// DBAR's, each in rate order.
func (h HotspotStudy) Runs() []*sim.Result {
	runs := make([]*sim.Result, 0, 2*len(h.Points))
	for _, pt := range h.Points {
		runs = append(runs, pt.FP.Result)
	}
	for _, pt := range h.Points {
		runs = append(runs, pt.DB.Result)
	}
	return runs
}

// Format renders Figure 9's two curves side by side.
func (h HotspotStudy) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 — background latency vs hotspot injection rate (background %.0f%%)\n", h.BackgroundRate*100)
	fmt.Fprintf(&b, "%-10s %14s %14s\n", "hotRate", "footprint", "dbar")
	latency := func(p sim.HotspotPoint) string {
		if !p.Stable {
			return "sat"
		}
		return fmt.Sprintf("%.1f", p.BackgroundLatency)
	}
	for i, pt := range h.Points {
		fmt.Fprintf(&b, "%-10.2f %14s %14s\n", h.Rates[i], latency(pt.FP), latency(pt.DB))
	}
	return b.String()
}

// Figure9 regenerates Figure 9 with Table 3's hotspot flows and uniform
// background traffic at bgRate. Every (rate, algorithm) cell is one
// independent run; nesting HotspotCurve inside a parallel algorithm loop
// would oversubscribe the worker budget.
func Figure9(p Profile, bgRate float64, rates []float64) (HotspotStudy, error) {
	if rates == nil {
		rates = rateGrid(0.05, 0.65, 0.05)
	}
	pts, err := paired(p, rates, func(rate float64, alg string) (sim.HotspotPoint, error) {
		cfg := p.BaseConfig()
		cfg.Algorithm = alg
		cfg.RunLabel = fmt.Sprintf("Figure 9 %s bg=%.2f", alg, bgRate)
		return sim.HotspotRun(cfg, bgRate, rate)
	})
	if err != nil {
		return HotspotStudy{}, err
	}
	return HotspotStudy{BackgroundRate: bgRate, Rates: rates, Points: pts}, nil
}
