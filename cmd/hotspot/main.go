// Command hotspot regenerates Figure 9: the latency of uniform background
// traffic as the Table 3 hotspot flows ramp up, for Footprint vs DBAR.
//
//	hotspot
//	hotspot -bg 0.3 -profile quick
//	hotspot -flows        # print Table 3
//	hotspot -obs-addr localhost:9090 -heatmap-out hot.csv
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
	profile := flag.String("profile", "full", "effort level: full or quick")
	bg := flag.Float64("bg", 0.3, "background injection rate (flits/node/cycle)")
	flows := flag.Bool("flows", false, "print the Table 3 hotspot flows and exit")
	jobs := cli.NewJobs()
	lobs := cli.NewObs("hotspot")
	export := cli.NewRunExport("hotspot")
	anat := cli.NewAnatomy("hotspot")
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

	lobs.Start()
	defer lobs.Close()

	prof := exp.FullProfile()
	if *profile == "quick" {
		prof = exp.QuickProfile()
	}
	prof.Jobs = *jobs
	prof.Obs = export.Options()
	anat.Apply(&prof.Obs)
	lobs.ApplyProfile(&prof)

	study, err := exp.Figure9(prof, *bg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotspot:", err)
		os.Exit(1)
	}
	if export.Enabled() {
		for alg, pts := range study.Curves {
			for _, pt := range pts {
				export.Write(fmt.Sprintf("%s-hot%.2f", alg, pt.Rate), pt.Result.Obs)
			}
		}
	}
	export.Report()
	fmt.Println(study.Format())
	if anat.Enabled() {
		for alg, pts := range study.Curves {
			for _, pt := range pts {
				anat.Report(os.Stdout, fmt.Sprintf("%s-hot%.2f", alg, pt.Rate), pt.Result)
			}
		}
		anat.Summary()
	}
}
