// Command sweep regenerates the latency-throughput figures of the paper:
//
//	sweep -figure 5                 # Figure 5: 7 algorithms, single-flit
//	sweep -figure 6                 # Figure 6: variable packet size
//	sweep -figure 7                 # Figure 7: Footprint vs DBAR, VC sweep
//	sweep -figure anatomy           # adaptiveness & latency-composition study
//	sweep -figure 5 -pattern shuffle -profile quick
//	sweep -jobs 8                   # 8 parallel runs, identical results
//	sweep -pprof localhost:6060     # CPU profiles labelled per run
//	sweep -counters-out ts.csv      # one counter CSV per run: ts_figure-5-uniform-footprint-rate-0.100.csv
//	sweep -figure 7 -anatomy        # the table, then one anatomy block per bisection probe
//	sweep -figure anatomy -anatomy-out anatomy.csv  # per-run anatomy CSVs
//
// After the tables every per-run flag (-anatomy, -anatomy-out,
// -phase-profile, -counters-out, -heatmap-out) is served for every run
// the figure made, under the run's label; a run whose watchdog tripped
// or a file that could not be written is exit 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"nocsim/internal/cli"
	"nocsim/internal/exp"
	"nocsim/internal/sim"
)

func main() {
	name := flag.String("figure", "5", "figure to regenerate (5, 6 or 7), or \"anatomy\" for the exercised-adaptiveness / latency-composition study")
	pattern := flag.String("pattern", "", "restrict to one pattern (default: all three)")
	ex := cli.NewExperiment("sweep")
	report := cli.NewRunReport()
	flag.Parse()
	prof := ex.Profile(report)

	patterns := exp.SyntheticPatterns()
	if *pattern != "" {
		patterns = []string{*pattern}
	}

	var runs []*sim.Result
	for _, p := range patterns {
		table, made, err := figure(*name, prof, p)
		if err != nil {
			fatal(err)
		}
		fmt.Println(table)
		runs = append(runs, made...)
	}
	if err := report.Finish(os.Stdout, runs); err != nil {
		fatal(err)
	}
}

// figure runs one panel of the named figure and returns its table and
// every run it made.
func figure(name string, prof exp.Profile, pattern string) (string, []*sim.Result, error) {
	switch name {
	case "5":
		cs, err := exp.Figure5(prof, pattern)
		return cs.Format(), cs.Runs(), err
	case "6":
		cs, err := exp.Figure6(prof, pattern)
		return cs.Format(), cs.Runs(), err
	case "7":
		vs, err := exp.Figure7(prof, pattern, nil)
		return vs.Format(), vs.Runs(), err
	case "anatomy":
		cs, err := exp.Anatomy(prof, pattern, nil)
		return cs.FormatAnatomy(), cs.Runs(), err
	}
	return "", nil, fmt.Errorf("unknown figure %q (want 5, 6, 7 or anatomy)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
