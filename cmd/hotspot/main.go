// Command hotspot regenerates Figure 9: the latency of uniform background
// traffic as the Table 3 hotspot flows ramp up, for Footprint vs DBAR.
//
//	hotspot
//	hotspot -bg 0.3 -profile quick
//	hotspot -flows        # print Table 3
//	hotspot -heatmap-out hot.csv  # one link heatmap per (alg, hotspot rate)
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
	export := cli.NewRunExport("hotspot")
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

	prof := ex.Profile(export)

	study, err := exp.Figure9(prof, *bg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotspot:", err)
		os.Exit(1)
	}
	fmt.Println(study.Format())
	// Each run's collector files and latency anatomy; no-ops without
	// their flags.
	for _, alg := range []string{"footprint", "dbar"} {
		for _, pt := range study.Curves[alg] {
			id := fmt.Sprintf("%s-hot%.2f", alg, pt.Rate)
			export.Write(id, pt.Result.Obs)
			ex.Anatomy.Report(os.Stdout, id, pt.Result)
		}
	}
	export.Report()
	ex.Anatomy.Summary()
}
