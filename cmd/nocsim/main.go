// Command nocsim runs a single network simulation and reports latency,
// throughput and blocking statistics.
//
// Usage:
//
//	nocsim [flags]
//	nocsim -print-config            # show the Table 2 baseline
//	nocsim -alg dbar -pattern transpose -rate 0.35
//	nocsim -rates 0.1,0.2,0.3 -jobs 4  # parallel mini-sweep, one row per rate
//	nocsim -width 16 -height 16 -vcs 4 -rate 0.2
//	nocsim -trace-out trace.json    # Perfetto-loadable lifecycle trace
//	nocsim -heatmap-out links.csv   # measurement-window link heatmap
//	nocsim -counters-out ts.csv -sample-period 100
//	nocsim -anatomy -phase-profile  # both tables after the result, under [<alg>]
//	nocsim -rates 0.1,0.3 -heatmap-out h.csv  # one file per rate: h_footprint-rate-0.100.csv
//	nocsim -watchdog-cycles 5000    # on a stall: dump a fabric snapshot, exit 1
//
// A single run writes -counters-out and -heatmap-out to the exact paths
// given; under -rates they, like every per-run flag, are served per run
// with the run's label as the file suffix (see cli.RunReport).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"nocsim/internal/cli"
	"nocsim/internal/exp"
	"nocsim/internal/flit"
	"nocsim/internal/sim"
	"nocsim/internal/traffic"
)

func main() {
	cfg := sim.DefaultConfig()
	flag.IntVar(&cfg.Width, "width", cfg.Width, "mesh width")
	flag.IntVar(&cfg.Height, "height", cfg.Height, "mesh height")
	flag.IntVar(&cfg.VCs, "vcs", cfg.VCs, "virtual channels per physical channel")
	flag.IntVar(&cfg.BufDepth, "buf", cfg.BufDepth, "flit buffer depth per VC")
	flag.IntVar(&cfg.Speedup, "speedup", cfg.Speedup, "router internal speedup")
	flag.StringVar(&cfg.Algorithm, "alg", cfg.Algorithm, "routing algorithm")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	flag.Int64Var(&cfg.WarmupCycles, "warmup", cfg.WarmupCycles, "warmup cycles")
	flag.Int64Var(&cfg.MeasureCycles, "measure", cfg.MeasureCycles, "measurement cycles")
	flag.Int64Var(&cfg.DrainCycles, "drain", cfg.DrainCycles, "drain cycle budget")

	pattern := flag.String("pattern", "uniform", "traffic pattern (uniform|transpose|shuffle|bitcomp)")
	rate := flag.Float64("rate", 0.2, "offered load in flits/node/cycle")
	rates := flag.String("rates", "", "comma-separated rate grid, e.g. 0.1,0.2,0.3: run a latency-throughput sweep on the -jobs worker pool instead of a single simulation")
	jobs := cli.NewJobs()
	minFlits := flag.Int("min-flits", 1, "minimum packet size")
	maxFlits := flag.Int("max-flits", 1, "maximum packet size")
	printConfig := flag.Bool("print-config", false, "print the configuration (Table 2) and exit")
	heatmap := flag.Bool("heatmap", false, "print the measurement-window link utilization: mean, per-node egress grid and the five hottest links")

	traceOut := flag.String("trace-out", "", "write a Chrome-trace (Perfetto) packet lifecycle trace to this file")
	traceJSONL := flag.String("trace-jsonl", "", "write the packet lifecycle trace as JSONL to this file")
	traceCap := flag.Int("trace-cap", 0, "lifecycle tracer ring capacity in events (0 = default)")
	lobs := cli.NewObs("nocsim")
	report := cli.NewRunReport()
	flag.Parse()

	if *printConfig {
		fmt.Print(exp.Table2(cfg))
		return
	}
	if err := lobs.Start(); err != nil {
		fatal(err)
	}

	cfg.Obs = report.Options()
	cfg.WatchdogCycles, cfg.WatchdogOut = lobs.WatchdogCycles, lobs.WatchdogOut

	size, err := traffic.SizeRange(*minFlits, *maxFlits)
	if err != nil {
		fatal(err)
	}
	if *rates != "" {
		sweep(cfg, *pattern, size, *rates, *jobs, report)
		return
	}
	cfg.Obs.Trace = *traceOut != "" || *traceJSONL != ""
	cfg.Obs.TraceCapacity = *traceCap
	cfg.Obs.Heatmap = cfg.Obs.Heatmap || *heatmap
	gen, err := sim.PatternGenerator(cfg, *pattern, size, *rate)
	if err != nil {
		fatal(err)
	}
	s, err := sim.New(cfg, gen)
	if err != nil {
		fatal(err)
	}
	res := s.Run()

	fmt.Printf("algorithm          %s\n", cfg.Algorithm)
	fmt.Printf("mesh               %dx%d, %d VCs\n", cfg.Width, cfg.Height, cfg.VCs)
	fmt.Printf("pattern            %s @ %.3f flits/node/cycle\n", *pattern, *rate)
	fmt.Printf("offered/accepted   %.3f / %.3f flits/node/cycle\n", res.Offered, res.Accepted)
	fmt.Printf("avg latency        %s cycles\n", naFloat(res.AvgLatency(flit.ClassBackground), "%.1f",
		res.Latency[flit.ClassBackground] != nil && res.Latency[flit.ClassBackground].N() > 0))
	fmt.Printf("p99 latency        %s cycles\n", naFloat(res.P99, "%.0f", !math.IsNaN(res.P99)))
	fmt.Printf("stable             %v (%d/%d measured packets delivered)\n",
		res.Stable, res.MeasuredEjected, res.Measured)
	fmt.Printf("blocking           %d events, purity %.3f, HoL degree %.1f\n",
		res.BlockEvents, res.Purity, res.HoLDegree)
	fmt.Printf("runtime            %s\n", res.Runtime)
	if col := s.Observability(); col != nil {
		if *heatmap {
			hm := col.Heatmap
			fmt.Printf("\nmean link utilization %.3f over the %d-cycle measurement window\n", hm.MeanUtilization(), hm.Cycles())
			fmt.Print(hm.EgressGrid())
			fmt.Println("hottest links:")
			for _, l := range hm.Hottest(5) {
				fmt.Printf("  n%-3d -%s-> n%-3d %d flits, %.4f flits/cycle\n", l.From, l.Dir, l.To, l.Flits, l.Utilization)
			}
		}
		if *traceOut != "" {
			writeFile(*traceOut, col.Tracer.WriteChromeTrace)
			fmt.Printf("trace              %s (%d events, %d dropped) — load in https://ui.perfetto.dev\n",
				*traceOut, col.Tracer.Len(), col.Tracer.Dropped())
		}
		if *traceJSONL != "" {
			writeFile(*traceJSONL, col.Tracer.WriteJSONL)
			fmt.Printf("trace jsonl        %s (%d events, %d dropped)\n",
				*traceJSONL, col.Tracer.Len(), col.Tracer.Dropped())
		}
		if report.CountersOut != "" {
			writeFile(report.CountersOut, col.Sampler.WriteCSV)
			fmt.Printf("counters           %s (%d samples every %d cycles)\n",
				report.CountersOut, len(col.Sampler.Samples()), col.Sampler.Period())
		}
		if report.HeatmapOut != "" {
			writeFile(report.HeatmapOut, col.Heatmap.WriteCSV)
			fmt.Printf("heatmap            %s (%d flits ejected in window)\n",
				report.HeatmapOut, col.Heatmap.TotalEjected())
		}
	}
	// The two exact-path files are served; Finish does the rest.
	report.CountersOut, report.HeatmapOut = "", ""
	if err := report.Finish(os.Stdout, []*sim.Result{res}); err != nil {
		fatal(err)
	}
}

// sweep runs the comma-separated rate grid through the parallel
// execution engine, prints one row per rate and serves the per-run flags
// for every run. The single-run trace outputs are skipped.
func sweep(cfg sim.Config, pattern string, size traffic.SizeFn, rateList string, jobs int, report *cli.RunReport) {
	var grid []float64
	for _, s := range strings.Split(rateList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal(fmt.Errorf("bad rate %q: %v", s, err))
		}
		grid = append(grid, v)
	}
	pts, err := sim.LatencyThroughput(cfg, pattern, size, grid, jobs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s / %s, %dx%d, %d VCs, %d workers\n",
		cfg.Algorithm, pattern, cfg.Width, cfg.Height, cfg.VCs, sim.Jobs(jobs))
	fmt.Printf("%8s %10s %10s %10s %8s %8s\n", "rate", "offered", "accepted", "latency", "p99", "stable")
	results := make([]*sim.Result, len(pts))
	for i, pt := range pts {
		res := pt.Result
		results[i] = res
		fmt.Printf("%8.3f %10.3f %10.3f %10s %8s %8v\n",
			pt.Rate, res.Offered, res.Accepted,
			naFloat(res.AvgLatency(flit.ClassBackground), "%.1f",
				res.Latency[flit.ClassBackground] != nil && res.Latency[flit.ClassBackground].N() > 0),
			naFloat(res.P99, "%.0f", !math.IsNaN(res.P99)),
			res.Stable)
	}
	if err := report.Finish(os.Stdout, results); err != nil {
		fatal(err)
	}
}

// naFloat formats v with format when ok, else "n/a".
func naFloat(v float64, format string, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf(format, v)
}

// writeFile writes one exact-path single-run file or exits.
func writeFile(path string, export func(w io.Writer) error) {
	if err := cli.WriteFile(path, export); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocsim:", err)
	os.Exit(1)
}
