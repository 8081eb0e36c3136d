package exp

import (
	"fmt"
	"strings"

	"nocsim/internal/flit"
	"nocsim/internal/sim"
	"nocsim/internal/stats"
	"nocsim/internal/trace"
)

// PairResult is one bar of Figure 10(a): the latency of Footprint versus
// DBAR when two PARSEC workloads run simultaneously.
type PairResult struct {
	A, B      string
	Latency   map[string]float64 // algorithm -> mean packet latency
	DeltaPct  float64            // (dbar - footprint) / dbar * 100
	Delivered map[string]int64
}

// WorkloadMetrics is one bar of Figures 10(b) and 10(c): per-application
// purity of blocking and degree of HoL blocking, per algorithm.
type WorkloadMetrics struct {
	Name      string
	Purity    map[string]float64
	HoLDegree map[string]float64
}

// TraceStudy is the whole of Figure 10.
type TraceStudy struct {
	Pairs       []PairResult
	PerWorkload []WorkloadMetrics
	runs        []*sim.Result
}

// Runs returns every simulation of the figure: the (pair × algorithm)
// replays of panel (a), then the (workload × algorithm) solo replays of
// panels (b) and (c).
func (ts TraceStudy) Runs() []*sim.Result { return ts.runs }

// DefaultPairs lists the workload combinations reported here, including
// the pairs the paper calls out by name (X264+Canneal as the single case
// DBAR edges ahead; Fluidanimate combinations as the biggest gains).
func DefaultPairs() [][2]string {
	return [][2]string{
		{"blackscholes", "bodytrack"},
		{"bodytrack", "canneal"},
		{"canneal", "dedup"},
		{"dedup", "ferret"},
		{"ferret", "fluidanimate"},
		{"fluidanimate", "vips"},
		{"vips", "x264"},
		{"x264", "canneal"},
		{"fluidanimate", "x264"},
		{"bodytrack", "fluidanimate"},
	}
}

// traceAlgorithms are the two algorithms Figure 10 compares.
var traceAlgorithms = []string{"footprint", "dbar"}

// RunTracePair replays the merged traces of two workloads under one
// algorithm and returns the simulation result. seed drives trace
// generation; the simulation's own seed is derived from the run identity
// so parallel grid cells never share RNG state.
func RunTracePair(p Profile, alg, a, b string, seed int64) (*sim.Result, error) {
	wa, err := trace.WorkloadByName(a)
	if err != nil {
		return nil, err
	}
	cfg := p.BaseConfig()
	cfg.Algorithm = alg
	var label string
	if b != "" {
		label = fmt.Sprintf("Figure 10 %s+%s/%s", a, b, alg)
	} else {
		label = fmt.Sprintf("Figure 10 %s/%s", a, alg)
	}
	// The seed key names the workload cell, not the algorithm, so both
	// algorithms of a Figure 10 bar replay against the same arbitration
	// coin flips (trace generation already shares seed explicitly).
	cfg = sim.Identify(cfg, label,
		fmt.Sprintf("trace/%s+%s/seed=%d", a, b, seed)).Apply(cfg)
	mesh := cfg.Mesh()
	ta := trace.Generate(wa, mesh, p.TraceCycles, seed)
	var merged []trace.Record
	if b != "" {
		wb, err := trace.WorkloadByName(b)
		if err != nil {
			return nil, err
		}
		// The secondary workload gets its own derived stream: seed+1
		// would collide with the next sweep point's base seed.
		tb := trace.Generate(wb, mesh, p.TraceCycles, sim.DeriveSeed(seed, "trace/secondary/"+b))
		merged = trace.Merge(ta, tb)
	} else {
		merged = ta
	}
	// Trace mode measures every packet: no warmup, the window covers the
	// trace, and the drain budget lets dependency chains unwind.
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = p.TraceCycles
	cfg.DrainCycles = 4 * p.TraceCycles
	s, err := sim.New(cfg, trace.NewPlayer(merged))
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// Figure10 regenerates Figure 10: paired-workload latency comparison (a)
// and per-application purity (b) and HoL degree (c). The (pair ×
// algorithm) and (workload × algorithm) grids run in parallel on the
// profile's worker budget; trace generation and simulation seeds are
// per-run, so the study is identical at any Jobs value.
func Figure10(p Profile, pairs [][2]string) (TraceStudy, error) {
	if pairs == nil {
		pairs = DefaultPairs()
	}
	nalg := len(traceAlgorithms)
	pairRes, err := sim.Map(p.Jobs, len(pairs)*nalg, func(i int) (*sim.Result, error) {
		pair, alg := pairs[i/nalg], traceAlgorithms[i%nalg]
		return RunTracePair(p, alg, pair[0], pair[1], 1000)
	})
	if err != nil {
		return TraceStudy{}, err
	}
	study := TraceStudy{runs: pairRes}
	for pi, pair := range pairs {
		pr := PairResult{A: pair[0], B: pair[1],
			Latency: map[string]float64{}, Delivered: map[string]int64{}}
		for ai, alg := range traceAlgorithms {
			res := pairRes[pi*nalg+ai]
			pr.Latency[alg] = res.AvgLatency(flit.ClassBackground)
			pr.Delivered[alg] = res.MeasuredEjected
		}
		db := pr.Latency["dbar"]
		pr.DeltaPct = stats.Ratio(db-pr.Latency["footprint"], db) * 100
		study.Pairs = append(study.Pairs, pr)
	}
	// Per-workload blocking metrics (Figures 10b, 10c) from solo runs over
	// the distinct workloads, in first-appearance order.
	seen := map[string]bool{}
	var names []string
	for _, pair := range pairs {
		for _, name := range []string{pair[0], pair[1]} {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	soloRes, err := sim.Map(p.Jobs, len(names)*nalg, func(i int) (*sim.Result, error) {
		name, alg := names[i/nalg], traceAlgorithms[i%nalg]
		return RunTracePair(p, alg, name, "", 2000)
	})
	if err != nil {
		return TraceStudy{}, err
	}
	study.runs = append(study.runs, soloRes...)
	for ni, name := range names {
		wm := WorkloadMetrics{Name: name,
			Purity: map[string]float64{}, HoLDegree: map[string]float64{}}
		for ai, alg := range traceAlgorithms {
			res := soloRes[ni*nalg+ai]
			wm.Purity[alg] = res.Purity
			wm.HoLDegree[alg] = res.HoLDegree
		}
		study.PerWorkload = append(study.PerWorkload, wm)
	}
	return study, nil
}

// Format renders the three panels of Figure 10.
func (ts TraceStudy) Format() string {
	var b strings.Builder
	b.WriteString("Figure 10(a) — PARSEC-substitute pairs, mean packet latency\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %10s\n", "pair", "footprint", "dbar", "fp gain")
	for _, pr := range ts.Pairs {
		fmt.Fprintf(&b, "%-28s %12.1f %12.1f %+9.1f%%\n",
			pr.A+"+"+pr.B, pr.Latency["footprint"], pr.Latency["dbar"], pr.DeltaPct)
	}
	b.WriteString("\nFigure 10(b) — purity of blocking (higher = less HoL)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %10s\n", "workload", "footprint", "dbar", "fp gain")
	for _, wm := range ts.PerWorkload {
		gain := stats.Ratio(wm.Purity["footprint"]-wm.Purity["dbar"], wm.Purity["dbar"]) * 100
		fmt.Fprintf(&b, "%-16s %12.3f %12.3f %+9.1f%%\n",
			wm.Name, wm.Purity["footprint"], wm.Purity["dbar"], gain)
	}
	b.WriteString("\nFigure 10(c) — degree of HoL blocking (impurity x blocks /1k packets)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s\n", "workload", "footprint", "dbar")
	for _, wm := range ts.PerWorkload {
		fmt.Fprintf(&b, "%-16s %12.1f %12.1f\n",
			wm.Name, wm.HoLDegree["footprint"], wm.HoLDegree["dbar"])
	}
	return b.String()
}
