// Package cli carries the flag wiring shared by every command: the stall
// watchdog (-watchdog-cycles, -watchdog-out), the pprof endpoint
// (-pprof), the phase profiler (-phase-profile), the per-run collector
// exports (-counters-out, -heatmap-out, -sample-period) of the
// experiment harnesses, the latency-anatomy set (-anatomy,
// -anatomy-out), and the -profile/-jobs preamble of the figure commands
// (NewExperiment).
package cli

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"nocsim/internal/exp"
	"nocsim/internal/obs"
	"nocsim/internal/sim"
)

// NewJobs registers the -jobs flag shared by the grid-shaped experiment
// commands: how many independent simulation runs execute concurrently.
// Per-run seeds are derived deterministically (see sim.DeriveSeed), so
// equal base seeds give identical results at any -jobs value.
func NewJobs() *int {
	return flag.Int("jobs", 0,
		"parallel simulation runs across the experiment grid (0 = one worker per CPU); results are identical at any value")
}

// Experiment is the flag set every figure command shares: the effort
// profile, the worker count, the watchdog and profiling flags and the
// latency anatomy. Construct with NewExperiment before flag.Parse, call
// Profile after.
type Experiment struct {
	Obs     *Obs
	Anatomy *Anatomy

	profile *string
	jobs    *int
}

// NewExperiment registers -profile, -jobs and the NewObs and NewAnatomy
// flags. tool names the command in diagnostics.
func NewExperiment(tool string) *Experiment {
	return &Experiment{
		profile: flag.String("profile", "full", "effort level: full or quick"),
		jobs:    NewJobs(),
		Obs:     NewObs(tool),
		Anatomy: NewAnatomy(tool),
	}
}

// Profile starts the pprof server if -pprof asked for one and returns
// the named effort profile with the worker count, the collectors of
// export (nil for a command without per-run exports), the anatomy and
// the watchdog and profiler flags applied. An unknown -profile name or
// an unbindable -pprof address prints one diagnostic line and exits 1.
func (e *Experiment) Profile(export *RunExport) exp.Profile {
	prof, err := exp.ProfileByName(*e.profile)
	if err == nil {
		err = e.Obs.Start()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", e.Obs.Tool, err)
		os.Exit(1)
	}
	prof.Jobs = *e.jobs
	if export != nil {
		prof.Obs = export.Options()
	}
	e.Anatomy.Apply(&prof.Obs)
	e.Obs.ApplyProfile(&prof)
	return prof
}

// Obs is the shared observability flag set. Construct with NewObs before
// flag.Parse, Start after.
type Obs struct {
	Tool           string
	WatchdogCycles int64
	WatchdogOut    string
	PprofAddr      string
	Profile        bool
	ProfileEvery   int64
}

// NewObs registers -watchdog-cycles, -watchdog-out, -pprof,
// -phase-profile and -profile-every on the default flag set. tool names
// the command in diagnostics.
func NewObs(tool string) *Obs {
	o := &Obs{Tool: tool}
	flag.Int64Var(&o.WatchdogCycles, "watchdog-cycles", 0,
		"flag windows of this many cycles with in-flight packets but zero forward progress, dumping a fabric snapshot (0 = off)")
	flag.StringVar(&o.WatchdogOut, "watchdog-out", "",
		"stall snapshot JSON path (default nocsim-stall.json)")
	flag.StringVar(&o.PprofAddr, "pprof", "",
		"serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.BoolVar(&o.Profile, "phase-profile", false,
		"profile the cycle loop: attribute time and allocations to pipeline phases on sampled cycles; results are unchanged")
	flag.Int64Var(&o.ProfileEvery, "profile-every", 0,
		"phase-profiler sampling period in cycles (0 = default 64)")
	return o
}

// Start binds the -pprof address, when one was given, and serves
// net/http/pprof on it until the process exits; the address it
// announces is the bound one, so ":0" is usable. Call after flag.Parse.
// An address that cannot be bound is an error.
func (o *Obs) Start() error {
	if o.PprofAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", o.PprofAddr)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: pprof http://%s/debug/pprof/\n", o.Tool, ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", o.Tool, err)
		}
	}()
	return nil
}

// ApplyConfig copies the watchdog and phase-profiler flags onto a single
// simulation config. Call it after the command has built cfg.Obs, so the
// profiler selection survives.
func (o *Obs) ApplyConfig(cfg *sim.Config) {
	cfg.WatchdogCycles = o.WatchdogCycles
	cfg.WatchdogOut = o.WatchdogOut
	if o.Profile {
		cfg.Obs.Profile = true
		cfg.Obs.ProfileEvery = o.ProfileEvery
	}
}

// ApplyProfile is ApplyConfig for an experiment profile, whose runs get
// the same three fields through Profile.BaseConfig.
func (o *Obs) ApplyProfile(p *exp.Profile) {
	cfg := sim.Config{Obs: p.Obs}
	o.ApplyConfig(&cfg)
	p.Obs, p.WatchdogCycles, p.WatchdogOut = cfg.Obs, cfg.WatchdogCycles, cfg.WatchdogOut
}

// CheckStalled returns an error naming every result whose watchdog
// tripped, with the snapshot each one dumped, and nil when none did. A
// stalled run still produces a Result; commands print it and then fail
// with this error, so a wedged fabric never exits 0.
func (o *Obs) CheckStalled(results ...*sim.Result) error {
	var stalled []string
	for _, r := range results {
		if r == nil || !r.Stalled {
			continue
		}
		label := r.Config.RunLabel
		if label == "" {
			label = r.Config.Algorithm
		}
		stalled = append(stalled, fmt.Sprintf("%s (snapshot %s)", label, r.Config.StallPath()))
	}
	if len(stalled) == 0 {
		return nil
	}
	return fmt.Errorf("watchdog: %d of %d runs stalled: %s", len(stalled), len(results), strings.Join(stalled, ", "))
}

// fileWriter creates the export files of one flag set and counts the
// ones that landed. It is not for sweep workers: commands write after
// the figure has returned.
type fileWriter struct {
	tool    string
	written int
}

// writeFile creates path and streams write into it, reporting a failure
// on stderr instead of aborting the sweep.
func (fw *fileWriter) writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fw.tool, err)
		return
	}
	if err := write(f); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "%s: write %s: %v\n", fw.tool, path, err)
		return
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: close %s: %v\n", fw.tool, path, err)
		return
	}
	fw.written++
}

// report prints how many files of kind were written.
func (fw *fileWriter) report(kind string) {
	if fw.written > 0 {
		fmt.Fprintf(os.Stderr, "%s: wrote %d %s files\n", fw.tool, fw.written, kind)
	}
}

// RunExport is the per-run collector flag set of the experiment
// harnesses: each simulation of a sweep gets its own counter/heatmap
// files, suffixed with the run's identity.
type RunExport struct {
	CountersOut  string
	HeatmapOut   string
	SamplePeriod int64

	fileWriter
}

// NewRunExport registers -counters-out, -heatmap-out and -sample-period.
func NewRunExport(tool string) *RunExport {
	e := &RunExport{fileWriter: fileWriter{tool: tool}}
	flag.StringVar(&e.CountersOut, "counters-out", "",
		"write per-router counter time series as CSV, one file per run, suffixed with the run identity")
	flag.StringVar(&e.HeatmapOut, "heatmap-out", "",
		"write measurement-window link heatmaps as CSV, one file per run, suffixed with the run identity")
	flag.Int64Var(&e.SamplePeriod, "sample-period", 0,
		"counter sampling period in cycles (0 = off; implied 100 by -counters-out)")
	return e
}

// Options translates the flags into collector options for the profile.
func (e *RunExport) Options() obs.Options {
	period := e.SamplePeriod
	if e.CountersOut != "" && period <= 0 {
		period = 100
	}
	return obs.Options{
		SamplePeriod: period,
		Heatmap:      e.HeatmapOut != "",
	}
}

// Write exports one run's collector data under the configured base paths,
// suffixed with the run identity (e.g. counters.csv ->
// counters_uniform-footprint-0.30.csv).
func (e *RunExport) Write(runID string, col *obs.Collector) {
	if col == nil {
		return
	}
	if e.CountersOut != "" && col.Sampler != nil {
		e.writeFile(obs.SuffixPath(e.CountersOut, runID), col.Sampler.WriteCSV)
	}
	if e.HeatmapOut != "" && col.Heatmap != nil {
		e.writeFile(obs.SuffixPath(e.HeatmapOut, runID), col.Heatmap.WriteCSV)
	}
}

// Report prints how many files were written.
func (e *RunExport) Report() { e.report("per-run export") }

// Anatomy is the shared latency-anatomy flag set: -anatomy collects and
// prints the per-run latency composition and exercised-adaptiveness
// table, -anatomy-out additionally writes per-run CSVs (the aggregate
// plus a -occupancy time-series file). Construct with NewAnatomy before
// flag.Parse.
type Anatomy struct {
	Print bool
	Out   string

	fileWriter
}

// NewAnatomy registers -anatomy and -anatomy-out.
func NewAnatomy(tool string) *Anatomy {
	a := &Anatomy{fileWriter: fileWriter{tool: tool}}
	flag.BoolVar(&a.Print, "anatomy", false,
		"collect the latency anatomy (per-hop latency composition, VC-class grant split, exercised adaptiveness) and print it per run")
	flag.StringVar(&a.Out, "anatomy-out", "",
		"write the latency anatomy as CSV, one aggregate file plus one -occupancy time-series file per run, suffixed with the run identity")
	return a
}

// Enabled reports whether anatomy collection was requested.
func (a *Anatomy) Enabled() bool { return a.Print || a.Out != "" }

// Apply enables the anatomy collector on o when requested.
func (a *Anatomy) Apply(o *obs.Options) {
	if a.Enabled() {
		o.Anatomy = true
	}
}

// Report prints the run's anatomy table to w (under -anatomy) and writes
// its CSVs (under -anatomy-out). runID is the run identity used to
// suffix output files; res may be nil or anatomy-free, in which case
// Report is a no-op.
func (a *Anatomy) Report(w io.Writer, runID string, res *sim.Result) {
	if res == nil || res.Anatomy == nil {
		return
	}
	if a.Print {
		if runID != "" {
			fmt.Fprintf(w, "[%s] ", runID)
		}
		res.Anatomy.Format(w)
	}
	if a.Out == "" {
		return
	}
	a.writeFile(obs.SuffixPath(a.Out, runID), res.Anatomy.WriteCSV)
	if res.Obs != nil && res.Obs.Anatomy != nil {
		a.writeFile(obs.SuffixPath(a.Out, runID+"-occupancy"), res.Obs.Anatomy.WriteSeriesCSV)
	}
}

// Summary prints how many CSV files Report wrote.
func (a *Anatomy) Summary() { a.report("anatomy CSV") }
