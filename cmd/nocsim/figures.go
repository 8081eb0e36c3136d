package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"nocsim/internal/exp"
	"nocsim/internal/sim"
	"nocsim/internal/topo"
	"nocsim/internal/trace"
	"nocsim/internal/traffic"
)

// ctree regenerates Figure 2 (the congestion tree of the Section 2
// example flows under each routing algorithm), Table 1 and the Section
// 4.4 cost analysis.
func ctree(fs *flag.FlagSet) action {
	tables := fs.Bool("tables", false, "print Table 1 and the cost analysis, skip the simulation")
	o := register(fs, true, false)
	return func(w, stderr io.Writer) error {
		prof, err := o.experiment(stderr)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, exp.Table1().Format())
		fmt.Fprintln(w, exp.SectionCost().Format())
		if *tables {
			return nil
		}
		study, err := exp.Figure2(prof, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, study.Format())
		return nil
	}
}

// sweep regenerates the latency-throughput figures (5, 6 and 7) and the
// exercised-adaptiveness / latency-composition study.
func sweep(fs *flag.FlagSet) action {
	name := fs.String("figure", "5", "figure to regenerate (5, 6 or 7), or \"anatomy\" for the exercised-adaptiveness / latency-composition study")
	pattern := fs.String("pattern", "", "restrict to one pattern (default: all three)")
	o := register(fs, true, true)
	return func(w, stderr io.Writer) error {
		prof, err := o.experiment(stderr)
		if err != nil {
			return err
		}
		patterns := exp.SyntheticPatterns()
		if *pattern != "" {
			patterns = []string{*pattern}
		}
		var runs []*sim.Result
		for _, p := range patterns {
			table, made, err := figure(*name, prof, p)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, table)
			runs = append(runs, made...)
		}
		return o.finish(w, runs)
	}
}

// figure runs one panel of the named figure and returns its table and
// every run it made.
func figure(name string, prof exp.Profile, pattern string) (string, []*sim.Result, error) {
	switch name {
	case "5":
		cs, err := exp.Figure5(prof, pattern)
		return cs.Format(), cs.Runs(), err
	case "6":
		cs, err := exp.Figure6(prof, pattern)
		return cs.Format(), cs.Runs(), err
	case "7":
		vs, err := exp.Figure7(prof, pattern, nil)
		return vs.Format(), vs.Runs(), err
	case "anatomy":
		cs, err := exp.Anatomy(prof, pattern, nil)
		return cs.FormatAnatomy(), cs.Runs(), err
	}
	return "", nil, fmt.Errorf("unknown figure %q (want 5, 6, 7 or anatomy)", name)
}

// scale regenerates Figure 8: DBAR saturation throughput normalized to
// Footprint as the mesh grows.
func scale(fs *flag.FlagSet) action {
	sizes := fs.String("sizes", "4x4,16x16", "comma-separated mesh sizes, e.g. 4x4,16x16")
	o := register(fs, true, true)
	return func(w, stderr io.Writer) error {
		prof, err := o.experiment(stderr)
		if err != nil {
			return err
		}
		var meshes [][2]int
		for _, s := range strings.Split(*sizes, ",") {
			// Not Sscanf("%dx%d"): it stops after the second number and
			// would read 4x4x4 as 4x4.
			ws, hs, _ := strings.Cut(strings.TrimSpace(s), "x")
			width, errW := strconv.Atoi(ws)
			height, errH := strconv.Atoi(hs)
			if errW != nil || errH != nil {
				return fmt.Errorf("bad size %q: want WIDTHxHEIGHT, e.g. 8x8", s)
			}
			wh := [2]int{width, height}
			if slices.Contains(meshes, wh) {
				return fmt.Errorf("size %dx%d is given twice: its runs would share every per-run file", width, height)
			}
			meshes = append(meshes, wh)
		}
		study, err := exp.Figure8(prof, meshes)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, study.Format())
		return o.finish(w, study.Runs())
	}
}

// hotspot regenerates Figure 9 (the latency of uniform background
// traffic as the Table 3 hotspot flows ramp up) or prints Table 3.
func hotspot(fs *flag.FlagSet) action {
	bg := fs.Float64("bg", 0.3, "background injection rate (flits/node/cycle)")
	flows := fs.Bool("flows", false, "print the Table 3 hotspot flows and exit")
	o := register(fs, true, true)
	return func(w, stderr io.Writer) error {
		if *flows {
			fmt.Fprintln(w, "Table 3 — hotspot flows (8x8 mesh)")
			f := traffic.HotspotFlows().Flows
			srcs := make([]int, 0, len(f))
			for s := range f {
				srcs = append(srcs, s)
			}
			sort.Ints(srcs)
			for _, s := range srcs {
				fmt.Fprintf(w, "  n%-3d -> n%d\n", s, f[s])
			}
			return nil
		}
		prof, err := o.experiment(stderr)
		if err != nil {
			return err
		}
		study, err := exp.Figure9(prof, *bg, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, study.Format())
		return o.finish(w, study.Runs())
	}
}

// traces regenerates Figure 10, the PARSEC-substitute trace experiments
// (paired-workload latency, purity of blocking, degree of HoL blocking),
// or writes one generated trace.
func traces(fs *flag.FlagSet) action {
	pairs := fs.String("pairs", "", "comma-separated workload pairs, e.g. x264+canneal (default: the built-in set)")
	gen := fs.String("gen", "", "generate a trace file for the named workload and exit")
	cycles := fs.Int64("cycles", 20000, "trace length in cycles (with -gen)")
	seed := fs.Int64("seed", 1, "trace generation seed (with -gen)")
	out := fs.String("o", "", "output file (with -gen)")
	o := register(fs, true, true)
	return func(w, stderr io.Writer) error {
		if *gen != "" {
			return generate(w, stderr, *gen, *cycles, *seed, *out)
		}
		prof, err := o.experiment(stderr)
		if err != nil {
			return err
		}
		var pairList [][2]string
		if *pairs != "" {
			for _, p := range strings.Split(*pairs, ",") {
				a, b, ok := strings.Cut(strings.TrimSpace(p), "+")
				if !ok {
					return fmt.Errorf("bad pair %q (want a+b)", p)
				}
				pair := [2]string{a, b}
				if slices.Contains(pairList, pair) {
					return fmt.Errorf("pair %s+%s is given twice: its runs would share every per-run file", a, b)
				}
				pairList = append(pairList, pair)
			}
		}
		study, err := exp.Figure10(prof, pairList)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, study.Format())
		return o.finish(w, study.Runs())
	}
}

// generate writes a cycles-long trace of the named workload on the 8x8
// mesh to out, or to w when out is empty.
func generate(w, stderr io.Writer, name string, cycles, seed int64, out string) error {
	if cycles <= 0 {
		return fmt.Errorf("-cycles %d: want a positive trace length", cycles)
	}
	wl, err := trace.WorkloadByName(name)
	if err != nil {
		return err
	}
	records := trace.Generate(wl, topo.MustNew(8, 8), cycles, seed)
	if out == "" {
		err = trace.Write(w, records)
	} else {
		err = writeFile(out, func(f io.Writer) error { return trace.Write(f, records) })
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "traces: wrote %d records of %s\n", len(records), name)
	return nil
}
