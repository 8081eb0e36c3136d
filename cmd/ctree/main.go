// Command ctree regenerates Figure 2: the anatomy of the congestion tree
// created by the Section 2 example flows under each routing algorithm,
// plus Table 1 and the Section 4.4 cost analysis.
//
//	ctree
//	ctree -profile quick
//	ctree -tables         # Table 1 + cost analysis only
package main

import (
	"flag"
	"fmt"
	"os"

	"nocsim/internal/cli"
	"nocsim/internal/exp"
)

func main() {
	profile := flag.String("profile", "full", "effort level: full or quick")
	tables := flag.Bool("tables", false, "print Table 1 and the cost analysis, skip the simulation")
	jobs := cli.NewJobs()
	lobs := cli.NewObs("ctree")
	anat := cli.NewAnatomy("ctree")
	flag.Parse()

	fmt.Println(exp.Table1().Format())
	fmt.Println(exp.SectionCost().Format())
	if *tables {
		return
	}

	lobs.Start()
	defer lobs.Close()

	prof := exp.FullProfile()
	if *profile == "quick" {
		prof = exp.QuickProfile()
	}
	prof.Jobs = *jobs
	anat.Apply(&prof.Obs)
	lobs.ApplyProfile(&prof)
	study, err := exp.Figure2(prof, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctree:", err)
		os.Exit(1)
	}
	fmt.Println(study.Format())
}
