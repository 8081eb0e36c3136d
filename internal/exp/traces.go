package exp

import (
	"fmt"
	"slices"
	"strings"

	"nocsim/internal/flit"
	"nocsim/internal/sim"
	"nocsim/internal/stats"
	"nocsim/internal/trace"
)

// TraceStudy is the whole of Figure 10: each workload pair replayed
// together (panel a) and each of their workloads replayed alone (panels
// b and c), under Footprint and under DBAR.
type TraceStudy struct {
	Pairs     [][2]string
	PairRuns  []Pair[*sim.Result] // one per pair
	Workloads []string
	SoloRuns  []Pair[*sim.Result] // one per workload
}

// Runs returns every simulation of the figure: the paired replays of
// panel (a), then the solo replays of panels (b) and (c), cell by cell,
// Footprint's before DBAR's.
func (ts TraceStudy) Runs() []*sim.Result {
	var runs []*sim.Result
	for _, rs := range slices.Concat(ts.PairRuns, ts.SoloRuns) {
		runs = append(runs, rs.FP, rs.DB)
	}
	return runs
}

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
	pairRuns, err := paired(p, pairs, func(pair [2]string, alg string) (*sim.Result, error) {
		return RunTracePair(p, alg, pair[0], pair[1], 1000)
	})
	if err != nil {
		return TraceStudy{}, err
	}
	// Per-workload blocking metrics (Figures 10b, 10c) from solo runs over
	// the distinct workloads, in first-appearance order.
	var names []string
	for _, pair := range pairs {
		for _, name := range pair {
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	soloRuns, err := paired(p, names, func(name, alg string) (*sim.Result, error) {
		return RunTracePair(p, alg, name, "", 2000)
	})
	if err != nil {
		return TraceStudy{}, err
	}
	return TraceStudy{Pairs: pairs, PairRuns: pairRuns, Workloads: names, SoloRuns: soloRuns}, nil
}

// Format renders the three panels of Figure 10.
func (ts TraceStudy) Format() string {
	var b strings.Builder
	b.WriteString("Figure 10(a) — PARSEC-substitute pairs, mean packet latency\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %10s\n", "pair", "footprint", "dbar", "fp gain")
	for i, rs := range ts.PairRuns {
		fp, db := rs.FP.AvgLatency(flit.ClassBackground), rs.DB.AvgLatency(flit.ClassBackground)
		fmt.Fprintf(&b, "%-28s %12.1f %12.1f %+9.1f%%\n",
			ts.Pairs[i][0]+"+"+ts.Pairs[i][1], fp, db, stats.Ratio(db-fp, db)*100)
	}
	b.WriteString("\nFigure 10(b) — purity of blocking (higher = less HoL)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %10s\n", "workload", "footprint", "dbar", "fp gain")
	for i, rs := range ts.SoloRuns {
		fp, db := rs.FP.Purity, rs.DB.Purity
		fmt.Fprintf(&b, "%-16s %12.3f %12.3f %+9.1f%%\n", ts.Workloads[i], fp, db, stats.Ratio(fp-db, db)*100)
	}
	b.WriteString("\nFigure 10(c) — degree of HoL blocking (impurity x blocks /1k packets)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s\n", "workload", "footprint", "dbar")
	for i, rs := range ts.SoloRuns {
		fmt.Fprintf(&b, "%-16s %12.1f %12.1f\n", ts.Workloads[i], rs.FP.HoLDegree, rs.DB.HoLDegree)
	}
	return b.String()
}
