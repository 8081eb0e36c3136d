// Command nocsim runs one network simulation and reports latency,
// throughput and blocking statistics, or, given a command name,
// regenerates one of the paper's tables and figures.
//
// Usage:
//
//	nocsim [flags]
//	nocsim -print-config            # show the Table 2 baseline
//	nocsim -alg dbar -pattern transpose -rate 0.35
//	nocsim -rates 0.1,0.2,0.3 -jobs 4  # parallel mini-sweep, one row per rate
//	nocsim -width 16 -height 16 -vcs 4 -rate 0.2
//	nocsim -trace-out trace.json    # Perfetto-loadable lifecycle trace
//	nocsim -heatmap-out links.csv   # measurement-window link heatmap
//	nocsim -counters-out ts.csv     # per-router counters every 100 cycles
//	nocsim -anatomy                 # latency anatomy after the result, under [<alg>]
//	nocsim -rates 0.1,0.3 -heatmap-out h.csv  # one file per rate: h_footprint-rate-0.100.csv
//	nocsim -watchdog-cycles 5000    # on a stall: dump a fabric snapshot, exit 1
//
//	nocsim ctree [-tables]          # Figure 2, Table 1, Section 4.4 cost
//	nocsim sweep -figure 5|6|7|anatomy [-pattern P]  # Figures 5-7
//	nocsim scale [-sizes 4x4,16x16]  # Figure 8
//	nocsim hotspot [-bg 0.3] [-flows]  # Figure 9, Table 3
//	nocsim traces [-pairs a+b,...]  # Figure 10
//	nocsim traces -gen dedup -cycles 20000 -o dedup.trace  # write a trace file
//
// The figure commands take -profile full|quick, and every command takes
// -jobs, -watchdog-cycles, -watchdog-out and -pprof. Every command but
// ctree, whose Figure 2 steps its fabrics by hand and makes no
// sim.Result, takes the per-run flags (-anatomy, -anatomy-out,
// -counters-out, -heatmap-out): they are served after the results for
// every run the command made (see opts.finish). A usage error is exit 2;
// a failed run, a stalled run or a file that could not be written is
// exit 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"

	"nocsim/internal/exp"
	"nocsim/internal/flit"
	"nocsim/internal/obs"
	"nocsim/internal/sim"
	"nocsim/internal/traffic"
)

const usage = `usage: nocsim [flags]                  one simulation, or one row per -rates value
       nocsim ctree|sweep|scale|hotspot|traces [flags]  regenerate a table or figure
`

// A command registers its flags on fs and returns the action to run once
// they are parsed.
type command func(fs *flag.FlagSet) action

type action func(stdout, stderr io.Writer) error

var commands = map[string]command{
	"ctree": ctree, "sweep": sweep, "scale": scale, "hotspot": hotspot, "traces": traces,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args on a fresh flag set, runs the command they name and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	name, cmd := "nocsim", command(single)
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
		if cmd = commands[name]; cmd == nil {
			fmt.Fprintf(stderr, "nocsim: unknown command %q\n%s", name, usage)
			return 2
		}
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "%sflags of %s:\n", usage, name)
		fs.PrintDefaults()
	}
	act := cmd(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "%s: unexpected argument %q\n", name, fs.Arg(0))
		fs.Usage()
		return 2
	}
	if err := act(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
	return 0
}

// single is the command without a name: one simulation, or a
// latency-throughput row per rate under -rates.
func single(fs *flag.FlagSet) action {
	cfg := sim.DefaultConfig()
	fs.IntVar(&cfg.Width, "width", cfg.Width, "mesh width")
	fs.IntVar(&cfg.Height, "height", cfg.Height, "mesh height")
	fs.IntVar(&cfg.VCs, "vcs", cfg.VCs, "virtual channels per physical channel")
	fs.IntVar(&cfg.BufDepth, "buf", cfg.BufDepth, "flit buffer depth per VC")
	fs.IntVar(&cfg.Speedup, "speedup", cfg.Speedup, "router internal speedup")
	fs.StringVar(&cfg.Algorithm, "alg", cfg.Algorithm, "routing algorithm")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.Int64Var(&cfg.WarmupCycles, "warmup", cfg.WarmupCycles, "warmup cycles")
	fs.Int64Var(&cfg.MeasureCycles, "measure", cfg.MeasureCycles, "measurement cycles")
	fs.Int64Var(&cfg.DrainCycles, "drain", cfg.DrainCycles, "drain cycle budget")

	pattern := fs.String("pattern", "uniform", "traffic pattern (uniform|transpose|shuffle|bitcomp)")
	rate := fs.Float64("rate", 0.2, "offered load in flits/node/cycle")
	rates := fs.String("rates", "", "comma-separated rate grid, e.g. 0.1,0.2,0.3: run a latency-throughput sweep on the -jobs worker pool instead of a single simulation")
	minFlits := fs.Int("min-flits", 1, "minimum packet size")
	maxFlits := fs.Int("max-flits", 1, "maximum packet size")
	printConfig := fs.Bool("print-config", false, "print the configuration (Table 2) and exit")
	heatmap := fs.Bool("heatmap", false, "print the measurement-window link utilization: mean, per-node egress grid and the five hottest links")

	traceOut := fs.String("trace-out", "", "write a Chrome-trace (Perfetto) packet lifecycle trace to this file")
	traceJSONL := fs.String("trace-jsonl", "", "write the packet lifecycle trace as JSONL to this file")
	traceCap := fs.Int("trace-cap", 0, "lifecycle tracer ring capacity in events (0 = default)")
	o := register(fs, false, true)

	return func(w, stderr io.Writer) error {
		if *printConfig {
			fmt.Fprint(w, exp.Table2(cfg))
			return nil
		}
		// The trace outputs and the printed heatmap describe one run.
		for _, f := range []struct {
			name string
			set  bool
		}{{"trace-out", *traceOut != ""}, {"trace-jsonl", *traceJSONL != ""}, {"trace-cap", *traceCap != 0}, {"heatmap", *heatmap}} {
			if f.set && *rates != "" {
				return fmt.Errorf("-%s applies to a single run and -rates makes several", f.name)
			}
		}
		if *traceCap < 0 {
			return fmt.Errorf("-trace-cap %d: a ring capacity is a positive event count (0 = default)", *traceCap)
		}
		if *traceCap != 0 && *traceOut == "" && *traceJSONL == "" {
			return errors.New("-trace-cap needs -trace-out or -trace-jsonl")
		}
		if err := o.start(stderr); err != nil {
			return err
		}
		cfg.Obs = o.collectors()
		cfg.WatchdogCycles, cfg.WatchdogOut = o.watchdogCycles, o.watchdogOut

		size, err := traffic.SizeRange(*minFlits, *maxFlits)
		if err != nil {
			return err
		}
		if *rates != "" {
			return rateSweep(w, cfg, *pattern, size, *rates, o)
		}
		cfg.Obs.Trace = *traceOut != "" || *traceJSONL != ""
		cfg.Obs.TraceCapacity = *traceCap
		cfg.Obs.Heatmap = cfg.Obs.Heatmap || *heatmap
		gen, err := sim.PatternGenerator(cfg, *pattern, size, *rate)
		if err != nil {
			return err
		}
		s, err := sim.New(cfg, gen)
		if err != nil {
			return err
		}
		res := s.Run()

		fmt.Fprintf(w, "algorithm          %s\n", cfg.Algorithm)
		fmt.Fprintf(w, "mesh               %dx%d, %d VCs\n", cfg.Width, cfg.Height, cfg.VCs)
		fmt.Fprintf(w, "pattern            %s @ %.3f flits/node/cycle\n", *pattern, *rate)
		fmt.Fprintf(w, "offered/accepted   %.3f / %.3f flits/node/cycle\n", res.Offered, res.Accepted)
		fmt.Fprintf(w, "avg latency        %s cycles\n", avgLatency(res))
		fmt.Fprintf(w, "p99 latency        %s cycles\n", naFloat(res.P99, "%.0f", !math.IsNaN(res.P99)))
		fmt.Fprintf(w, "stable             %v (%d/%d measured packets delivered)\n",
			res.Stable, res.MeasuredEjected, res.Measured)
		fmt.Fprintf(w, "blocking           %d events, purity %.3f, HoL degree %.1f\n",
			res.BlockEvents, res.Purity, res.HoLDegree)
		fmt.Fprintf(w, "runtime            %s\n", res.Runtime)
		if col := s.Observability(); col != nil {
			if *heatmap {
				hm := col.Heatmap
				fmt.Fprintf(w, "\nmean link utilization %.3f over the %d-cycle measurement window\n", hm.MeanUtilization(), hm.Cycles())
				fmt.Fprint(w, hm.EgressGrid())
				fmt.Fprintln(w, "hottest links:")
				for _, l := range hm.Hottest(5) {
					fmt.Fprintf(w, "  n%-3d -%s-> n%-3d %d flits, %.4f flits/cycle\n", l.From, l.Dir, l.To, l.Flits, l.Utilization)
				}
			}
			if *traceOut != "" {
				if err := writeFile(*traceOut, col.Tracer.WriteChromeTrace); err != nil {
					return err
				}
				fmt.Fprintf(w, "trace              %s (%d events, %d dropped) — load in https://ui.perfetto.dev\n",
					*traceOut, col.Tracer.Len(), col.Tracer.Dropped())
			}
			if *traceJSONL != "" {
				if err := writeFile(*traceJSONL, col.Tracer.WriteJSONL); err != nil {
					return err
				}
				fmt.Fprintf(w, "trace jsonl        %s (%d events, %d dropped)\n",
					*traceJSONL, col.Tracer.Len(), col.Tracer.Dropped())
			}
		}
		return o.finish(w, []*sim.Result{res})
	}
}

// rateSweep runs the comma-separated rate grid through the parallel
// execution engine, prints one row per rate and serves the per-run flags
// for every run. A run is named by its rate to three decimals, so two
// rates that agree that far are an error: they would print as one row
// and share every per-run file.
func rateSweep(w io.Writer, cfg sim.Config, pattern string, size traffic.SizeFn, rateList string, o *opts) error {
	var grid []float64
	named := map[string]string{} // rate to three decimals -> the value given
	for _, s := range strings.Split(rateList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad rate %q: %v", s, err)
		}
		name, given := fmt.Sprintf("%.3f", v), strings.TrimSpace(s)
		if prev, ok := named[name]; ok {
			return fmt.Errorf("rates %s and %s are both rate %s: their runs would share every per-run file",
				prev, given, name)
		}
		named[name] = given
		grid = append(grid, v)
	}
	pts, err := sim.LatencyThroughput(cfg, pattern, size, grid, o.jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s / %s, %dx%d, %d VCs, %d workers\n",
		cfg.Algorithm, pattern, cfg.Width, cfg.Height, cfg.VCs, sim.Jobs(o.jobs))
	fmt.Fprintf(w, "%8s %10s %10s %10s %8s %8s\n", "rate", "offered", "accepted", "latency", "p99", "stable")
	results := make([]*sim.Result, len(pts))
	for i, pt := range pts {
		res := pt.Result
		results[i] = res
		fmt.Fprintf(w, "%8.3f %10.3f %10.3f %10s %8s %8v\n",
			pt.Rate, res.Offered, res.Accepted, avgLatency(res),
			naFloat(res.P99, "%.0f", !math.IsNaN(res.P99)), res.Stable)
	}
	return o.finish(w, results)
}

// avgLatency formats the background-class mean latency, "n/a" when no
// packet was measured.
func avgLatency(res *sim.Result) string {
	h := res.Latency[flit.ClassBackground]
	return naFloat(res.AvgLatency(flit.ClassBackground), "%.1f", h != nil && h.N() > 0)
}

// naFloat formats v with format when ok, else "n/a".
func naFloat(v float64, format string, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf(format, v)
}

// opts is the flag wiring the commands share. The process flags
// (-jobs, -watchdog-cycles, -watchdog-out, -pprof) are on every command
// and -profile on the figure commands. The per-run flags (-anatomy,
// -anatomy-out, -counters-out, -heatmap-out) are on every command that
// makes a sim.Result: collectors turns them into what each run carries,
// and finish reads the runs once the command has made them all.
type opts struct {
	tool, profile, pprof, watchdogOut string
	jobs                              int
	watchdogCycles                    int64

	anatomy                             bool
	anatomyOut, countersOut, heatmapOut string
}

// register adds the shared flags to fs: -profile when figure is set, the
// per-run flags when perRun is.
func register(fs *flag.FlagSet, figure, perRun bool) *opts {
	o := &opts{tool: fs.Name()}
	if figure {
		fs.StringVar(&o.profile, "profile", "full", "effort level: full or quick")
	}
	fs.IntVar(&o.jobs, "jobs", 0,
		"parallel simulation runs across the experiment grid (0 = one worker per CPU); results are identical at any value")
	fs.Int64Var(&o.watchdogCycles, "watchdog-cycles", 0,
		"flag windows of this many cycles with in-flight packets but zero forward progress, dumping a fabric snapshot (0 = off)")
	fs.StringVar(&o.watchdogOut, "watchdog-out", "",
		"stall snapshot JSON path (default nocsim-stall.json)")
	fs.StringVar(&o.pprof, "pprof", "",
		"serve net/http/pprof on this address (e.g. localhost:6060)")
	if perRun {
		fs.BoolVar(&o.anatomy, "anatomy", false,
			"collect the latency anatomy (per-hop latency composition, VC-class grant split, exercised adaptiveness) and print it per run")
		fs.StringVar(&o.anatomyOut, "anatomy-out", "",
			"write the latency anatomy as CSV, one aggregate file plus one -occupancy time-series file per run, suffixed with the run label")
		fs.StringVar(&o.countersOut, "counters-out", "",
			"write per-router counters sampled every 100 cycles as CSV; with more than one run, one file per run suffixed with the run label")
		fs.StringVar(&o.heatmapOut, "heatmap-out", "",
			"write the measurement-window link heatmap as CSV; with more than one run, one file per run suffixed with the run label")
	}
	return o
}

// experiment starts the pprof server if -pprof asked for one and returns
// the named effort profile with the worker count, the watchdog flags and
// the per-run collectors applied.
func (o *opts) experiment(stderr io.Writer) (exp.Profile, error) {
	prof, err := exp.ProfileByName(o.profile)
	if err != nil {
		return prof, err
	}
	prof.Jobs = o.jobs
	prof.WatchdogCycles, prof.WatchdogOut = o.watchdogCycles, o.watchdogOut
	prof.Obs = o.collectors()
	return prof, o.start(stderr)
}

// start binds the -pprof address, when one was given, and serves
// net/http/pprof on it until the process exits; the address it
// announces is the bound one, so ":0" is usable. An address that cannot
// be bound is an error.
func (o *opts) start(stderr io.Writer) error {
	if o.pprof == "" {
		return nil
	}
	ln, err := net.Listen("tcp", o.pprof)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	fmt.Fprintf(stderr, "%s: pprof http://%s/debug/pprof/\n", o.tool, ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintf(stderr, "%s: pprof: %v\n", o.tool, err)
		}
	}()
	return nil
}

// collectors translates the per-run flags into the collectors every run
// carries.
func (o *opts) collectors() obs.Options {
	var period int64
	if o.countersOut != "" {
		period = 100
	}
	return obs.Options{
		SamplePeriod: period,
		Heatmap:      o.heatmapOut != "",
		Anatomy:      o.anatomy || o.anatomyOut != "",
	}
}

// finish serves the per-run flags for every run a command made, which
// must have carried collectors. A command that made one run writes its
// counter and heatmap CSVs to the exact paths given, each confirmed by a
// line on w; otherwise each run's file takes the path suffixed with the
// run's label, as its stall snapshot does (obs.SuffixPath; a label-less
// run goes by its algorithm). The anatomy CSVs, two per run, are always
// suffixed. Then each run's latency anatomy is printed to w under
// "[<run label>]". Every file that can be written is. The error names
// each file that could not be and each run whose watchdog tripped, with
// the snapshot it dumped — a stalled run still has a Result, so its
// results are printed before the error.
func (o *opts) finish(w io.Writer, runs []*sim.Result) error {
	var lost, stalled []string
	write := func(path string, export func(io.Writer) error) bool {
		err := writeFile(path, export)
		if err != nil {
			lost = append(lost, err.Error())
		}
		return err == nil
	}
	one := len(runs) == 1
	path := func(base, label string) string {
		if one {
			return base
		}
		return obs.SuffixPath(base, label)
	}
	for _, res := range runs {
		label := res.Config.RunLabel
		if label == "" {
			label = res.Config.Algorithm
		}
		if o.countersOut != "" && write(path(o.countersOut, label), res.Obs.Sampler.WriteCSV) && one {
			fmt.Fprintf(w, "counters           %s (%d samples every %d cycles)\n",
				o.countersOut, len(res.Obs.Sampler.Samples()), res.Obs.Sampler.Period())
		}
		if o.heatmapOut != "" && write(path(o.heatmapOut, label), res.Obs.Heatmap.WriteCSV) && one {
			fmt.Fprintf(w, "heatmap            %s (%d flits ejected in window)\n",
				o.heatmapOut, res.Obs.Heatmap.TotalEjected())
		}
		if o.anatomyOut != "" {
			write(obs.SuffixPath(o.anatomyOut, label), res.Anatomy.WriteCSV)
			write(obs.SuffixPath(o.anatomyOut, label+"-occupancy"), res.Obs.Anatomy.WriteSeriesCSV)
		}
		if o.anatomy {
			fmt.Fprintf(w, "\n[%s] ", label)
			res.Anatomy.Format(w)
		}
		if res.Stalled {
			stalled = append(stalled, fmt.Sprintf("%s (snapshot %s)", label, res.Config.StallPath()))
		}
	}
	var errs []error
	if len(lost) > 0 {
		errs = append(errs, fmt.Errorf("%d per-run files not written: %s", len(lost), strings.Join(lost, ", ")))
	}
	if len(stalled) > 0 {
		errs = append(errs, fmt.Errorf("watchdog: %d of %d runs stalled: %s", len(stalled), len(runs), strings.Join(stalled, ", ")))
	}
	return errors.Join(errs...)
}

// writeFile creates path and streams export into it.
func writeFile(path string, export func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
