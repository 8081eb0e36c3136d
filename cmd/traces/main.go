// Command traces regenerates Figure 10: PARSEC-substitute trace
// experiments — paired-workload latency (a), purity of blocking (b), and
// degree of HoL blocking (c).
//
//	traces
//	traces -profile quick
//	traces -pairs fluidanimate+bodytrack,x264+canneal
//	traces -gen dedup -cycles 20000 -o dedup.trace   # write a trace file
//	traces -pairs x264+canneal -anatomy              # the tables, then one anatomy block per replay
//
// The per-run flags (-anatomy, -anatomy-out, -phase-profile,
// -counters-out, -heatmap-out) are served after the tables for every
// paired and solo replay, under labels such as
// "Figure 10 x264+canneal/dbar"; a run whose watchdog tripped or a file
// that could not be written is exit 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nocsim/internal/cli"
	"nocsim/internal/exp"
	"nocsim/internal/topo"
	"nocsim/internal/trace"
)

func main() {
	pairs := flag.String("pairs", "", "comma-separated workload pairs, e.g. x264+canneal (default: the built-in set)")
	gen := flag.String("gen", "", "generate a trace file for the named workload and exit")
	cycles := flag.Int64("cycles", 20000, "trace length in cycles (with -gen)")
	seed := flag.Int64("seed", 1, "trace generation seed (with -gen)")
	out := flag.String("o", "", "output file (with -gen)")
	ex := cli.NewExperiment("traces")
	report := cli.NewRunReport()
	flag.Parse()

	if *gen != "" {
		if err := generate(*gen, *cycles, *seed, *out); err != nil {
			fatal(err)
		}
		return
	}

	prof := ex.Profile(report)

	var pairList [][2]string
	if *pairs != "" {
		for _, p := range strings.Split(*pairs, ",") {
			ab := strings.SplitN(strings.TrimSpace(p), "+", 2)
			if len(ab) != 2 {
				fatal(fmt.Errorf("bad pair %q (want a+b)", p))
			}
			pairList = append(pairList, [2]string{ab[0], ab[1]})
		}
	}

	study, err := exp.Figure10(prof, pairList)
	if err != nil {
		fatal(err)
	}
	fmt.Println(study.Format())
	if err := report.Finish(os.Stdout, study.Runs()); err != nil {
		fatal(err)
	}
}

func generate(name string, cycles, seed int64, out string) error {
	w, err := trace.WorkloadByName(name)
	if err != nil {
		return err
	}
	records := trace.Generate(w, topo.MustNew(8, 8), cycles, seed)
	dst := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close() // error paths; success reports Close below
		dst = f
	}
	if err := trace.Write(dst, records); err != nil {
		return err
	}
	if out != "" {
		if err := dst.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "traces: wrote %d records of %s\n", len(records), name)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traces:", err)
	os.Exit(1)
}
