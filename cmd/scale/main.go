// Command scale regenerates Figure 8: DBAR saturation throughput
// normalized to Footprint as the mesh grows from 4×4 to 16×16.
//
//	scale
//	scale -profile quick
//	scale -sizes 4x4,8x8,16x16
//	scale -watchdog-cycles 5000     # dump a fabric snapshot per stalled run
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
	flag.Parse()
	prof := ex.Profile(nil)

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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scale:", err)
	os.Exit(1)
}
