// Command ctree regenerates Figure 2: the anatomy of the congestion tree
// created by the Section 2 example flows under each routing algorithm,
// plus Table 1 and the Section 4.4 cost analysis.
//
//	ctree
//	ctree -profile quick
//	ctree -tables         # Table 1 + cost analysis only
//
// Figure 2 steps its fabrics by hand and samples the congestion tree as
// it goes: it makes no sim.Result, so ctree takes the process flags
// (-profile, -jobs, -watchdog-*, -pprof) and none of the per-run ones.
package main

import (
	"flag"
	"fmt"
	"os"

	"nocsim/internal/cli"
	"nocsim/internal/exp"
)

func main() {
	tables := flag.Bool("tables", false, "print Table 1 and the cost analysis, skip the simulation")
	ex := cli.NewExperiment("ctree")
	flag.Parse()
	prof := ex.Profile(nil)

	fmt.Println(exp.Table1().Format())
	fmt.Println(exp.SectionCost().Format())
	if *tables {
		return
	}

	study, err := exp.Figure2(prof, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctree:", err)
		os.Exit(1)
	}
	fmt.Println(study.Format())
}
