// Command scale regenerates Figure 8: DBAR saturation throughput
// normalized to Footprint as the mesh grows from 4×4 to 16×16.
//
//	scale
//	scale -profile quick
//	scale -sizes 4x4,8x8,16x16
//	scale -watchdog-cycles 5000     # dump a fabric snapshot per stalled run, exit 1
//	scale -sizes 4x4 -anatomy       # the table, then one anatomy block per bisection probe
//
// The per-run flags (-anatomy, -anatomy-out, -phase-profile,
// -counters-out, -heatmap-out) are served after the table for every
// probe of every bisection, under labels such as
// "Figure 8 uniform/dbar 4x4 rate=0.525".
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nocsim/internal/cli"
	"nocsim/internal/exp"
)

func main() {
	sizes := flag.String("sizes", "4x4,16x16", "comma-separated mesh sizes, e.g. 4x4,16x16")
	ex := cli.NewExperiment("scale")
	report := cli.NewRunReport()
	flag.Parse()
	prof := ex.Profile(report)

	var meshes [][2]int
	for _, s := range strings.Split(*sizes, ",") {
		// Not Sscanf("%dx%d"): it stops after the second number and would
		// read 4x4x4 as 4x4.
		ws, hs, _ := strings.Cut(strings.TrimSpace(s), "x")
		w, errW := strconv.Atoi(ws)
		h, errH := strconv.Atoi(hs)
		if errW != nil || errH != nil {
			fatal(fmt.Errorf("bad size %q: want WIDTHxHEIGHT, e.g. 8x8", s))
		}
		meshes = append(meshes, [2]int{w, h})
	}

	study, err := exp.Figure8(prof, meshes)
	if err != nil {
		fatal(err)
	}
	fmt.Println(study.Format())
	if err := report.Finish(os.Stdout, study.Runs()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scale:", err)
	os.Exit(1)
}
