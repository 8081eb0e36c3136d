// Command scale regenerates Figure 8: DBAR saturation throughput
// normalized to Footprint as the mesh grows from 4×4 to 16×16.
//
//	scale
//	scale -profile quick
//	scale -sizes 4x4,8x8,16x16
//	scale -obs-addr localhost:9090 -watchdog-cycles 5000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nocsim/internal/cli"
	"nocsim/internal/exp"
)

func main() {
	sizes := flag.String("sizes", "4x4,16x16", "comma-separated mesh sizes, e.g. 4x4,16x16")
	ex := cli.NewExperiment("scale")
	flag.Parse()
	prof := ex.Profile(nil)
	defer ex.Obs.Close()

	var meshes [][2]int
	for _, s := range strings.Split(*sizes, ",") {
		var w, h int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%dx%d", &w, &h); err != nil {
			fatal(fmt.Errorf("bad size %q: %v", s, err))
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
