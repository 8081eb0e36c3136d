// Command hotspot regenerates Figure 9: the latency of uniform background
// traffic as the Table 3 hotspot flows ramp up, for Footprint vs DBAR.
//
//	hotspot
//	hotspot -bg 0.3 -profile quick
//	hotspot -flows        # print Table 3
//	hotspot -heatmap-out hot.csv  # one link heatmap per run: hot_figure-9-footprint-bg-0.30-hot-0.10.csv
//	hotspot -anatomy -phase-profile  # the table, then both blocks per run
//
// The per-run flags (-anatomy, -anatomy-out, -phase-profile,
// -counters-out, -heatmap-out) are served after the table for all 26
// runs; a run whose watchdog tripped or a file that could not be written
// is exit 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"nocsim/internal/cli"
	"nocsim/internal/exp"
	"nocsim/internal/traffic"
)

func main() {
	bg := flag.Float64("bg", 0.3, "background injection rate (flits/node/cycle)")
	flows := flag.Bool("flows", false, "print the Table 3 hotspot flows and exit")
	ex := cli.NewExperiment("hotspot")
	report := cli.NewRunReport()
	flag.Parse()

	if *flows {
		fmt.Println("Table 3 — hotspot flows (8x8 mesh)")
		f := traffic.HotspotFlows().Flows
		srcs := make([]int, 0, len(f))
		for s := range f {
			srcs = append(srcs, s)
		}
		sort.Ints(srcs)
		for _, s := range srcs {
			fmt.Printf("  n%-3d -> n%d\n", s, f[s])
		}
		return
	}

	study, err := exp.Figure9(ex.Profile(report), *bg, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Println(study.Format())
	if err := report.Finish(os.Stdout, study.Runs()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hotspot:", err)
	os.Exit(1)
}
