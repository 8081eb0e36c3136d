// Command sweep regenerates the latency-throughput figures of the paper:
//
//	sweep -figure 5                 # Figure 5: 7 algorithms, single-flit
//	sweep -figure 6                 # Figure 6: variable packet size
//	sweep -figure 7                 # Figure 7: Footprint vs DBAR, VC sweep
//	sweep -figure anatomy           # adaptiveness & latency-composition study
//	sweep -figure 5 -pattern shuffle -profile quick
//	sweep -jobs 8                   # 8 parallel runs, identical results
//	sweep -pprof localhost:6060     # CPU profiles labelled per run
//	sweep -counters-out ts.csv      # one counter CSV per (pattern,alg,rate)
//	sweep -figure anatomy -anatomy-out anatomy.csv  # per-run anatomy CSVs
package main

import (
	"flag"
	"fmt"
	"os"

	"nocsim/internal/cli"
	"nocsim/internal/exp"
)

func main() {
	figure := flag.String("figure", "5", "figure to regenerate (5, 6 or 7), or \"anatomy\" for the exercised-adaptiveness / latency-composition study")
	pattern := flag.String("pattern", "", "restrict to one pattern (default: all three)")
	ex := cli.NewExperiment("sweep")
	export := cli.NewRunExport("sweep")
	flag.Parse()
	prof := ex.Profile(export)
	anat := ex.Anatomy

	patterns := exp.SyntheticPatterns()
	if *pattern != "" {
		patterns = []string{*pattern}
	}

	for _, p := range patterns {
		switch *figure {
		case "5", "6":
			run := exp.Figure5
			if *figure == "6" {
				run = exp.Figure6
			}
			cs, err := run(prof, p)
			if err != nil {
				fatal(err)
			}
			fmt.Println(cs.Format())
			// Each run's collector files and latency anatomy, suffixed
			// with pattern-algorithm-rate; no-ops without their flags.
			for _, c := range cs.Curves {
				for _, pt := range c.Points {
					id := fmt.Sprintf("%s-%s-%.2f", cs.Pattern, c.Algorithm, pt.Rate)
					export.Write(id, pt.Result.Obs)
					anat.Report(os.Stdout, id, pt.Result)
				}
			}
		case "7":
			vs, err := exp.Figure7(prof, p, nil)
			if err != nil {
				fatal(err)
			}
			fmt.Println(vs.Format())
		case "anatomy":
			st, err := exp.Anatomy(prof, p, nil)
			if err != nil {
				fatal(err)
			}
			fmt.Println(st.Format())
			for _, c := range st.Curves {
				for _, pt := range c.Points {
					id := fmt.Sprintf("%s-%s-%.2f", st.Pattern, c.Algorithm, pt.Rate)
					anat.Report(os.Stdout, id, pt.Result)
				}
			}
		default:
			fatal(fmt.Errorf("unknown figure %q (want 5, 6, 7 or anatomy)", *figure))
		}
	}
	export.Report()
	anat.Summary()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
