// Package cli carries the flag wiring the commands share, in two groups.
// The process group is what a command needs while it runs: the stall
// watchdog (-watchdog-cycles, -watchdog-out) and the pprof endpoint
// (-pprof) of Obs, to which Experiment adds the -profile/-jobs preamble
// of the figure commands. The run group, RunReport, is everything a flag
// can ask of one simulation: -anatomy, -anatomy-out, -phase-profile,
// -profile-every, -counters-out, -heatmap-out, -sample-period. An
// experiment returns every run it made, and RunReport.Finish serves all
// of those flags in one place, after the experiment has returned, under
// each run's own label.
package cli

import (
	"errors"
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

// Experiment is the process group of a figure command: the effort
// profile, the worker count and the Obs flags. Construct with
// NewExperiment before flag.Parse, call Profile after.
type Experiment struct {
	Obs *Obs

	profile *string
	jobs    *int
}

// NewExperiment registers -profile, -jobs and the NewObs flags. tool
// names the command in diagnostics.
func NewExperiment(tool string) *Experiment {
	return &Experiment{
		profile: flag.String("profile", "full", "effort level: full or quick"),
		jobs:    NewJobs(),
		Obs:     NewObs(tool),
	}
}

// Profile starts the pprof server if -pprof asked for one and returns
// the named effort profile with the worker count, the watchdog flags and
// the collectors report asks of every run (nil for a command that makes
// no sim.Result) applied. An unknown -profile name or an unbindable
// -pprof address prints one diagnostic line and exits 1.
func (e *Experiment) Profile(report *RunReport) exp.Profile {
	prof, err := exp.ProfileByName(*e.profile)
	if err == nil {
		err = e.Obs.Start()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", e.Obs.Tool, err)
		os.Exit(1)
	}
	prof.Jobs = *e.jobs
	prof.WatchdogCycles, prof.WatchdogOut = e.Obs.WatchdogCycles, e.Obs.WatchdogOut
	if report != nil {
		prof.Obs = report.Options()
	}
	return prof
}

// Obs is the process group every command shares. Construct with NewObs
// before flag.Parse, Start after.
type Obs struct {
	Tool           string
	WatchdogCycles int64
	WatchdogOut    string
	PprofAddr      string
}

// NewObs registers -watchdog-cycles, -watchdog-out and -pprof on the
// default flag set. tool names the command in diagnostics.
func NewObs(tool string) *Obs {
	o := &Obs{Tool: tool}
	flag.Int64Var(&o.WatchdogCycles, "watchdog-cycles", 0,
		"flag windows of this many cycles with in-flight packets but zero forward progress, dumping a fabric snapshot (0 = off)")
	flag.StringVar(&o.WatchdogOut, "watchdog-out", "",
		"stall snapshot JSON path (default nocsim-stall.json)")
	flag.StringVar(&o.PprofAddr, "pprof", "",
		"serve net/http/pprof on this address (e.g. localhost:6060)")
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

// RunReport is the run group: what the flags ask of every simulation a
// command makes. Options turns them into the collectors each run
// carries; Finish reads the runs once the experiment has returned.
// Construct with NewRunReport before flag.Parse.
type RunReport struct {
	Anatomy      bool
	AnatomyOut   string
	PhaseProfile bool
	ProfileEvery int64
	CountersOut  string
	HeatmapOut   string
	SamplePeriod int64
}

// NewRunReport registers -anatomy, -anatomy-out, -phase-profile,
// -profile-every, -counters-out, -heatmap-out and -sample-period.
func NewRunReport() *RunReport {
	r := &RunReport{}
	flag.BoolVar(&r.Anatomy, "anatomy", false,
		"collect the latency anatomy (per-hop latency composition, VC-class grant split, exercised adaptiveness) and print it per run")
	flag.StringVar(&r.AnatomyOut, "anatomy-out", "",
		"write the latency anatomy as CSV, one aggregate file plus one -occupancy time-series file per run, suffixed with the run label")
	flag.BoolVar(&r.PhaseProfile, "phase-profile", false,
		"profile the cycle loop: attribute time and allocations to pipeline phases on sampled cycles and print the table per run; results are unchanged")
	flag.Int64Var(&r.ProfileEvery, "profile-every", 0,
		"phase-profiler sampling period in cycles (0 = default 64)")
	flag.StringVar(&r.CountersOut, "counters-out", "",
		"write per-router counter time series as CSV, one file per run, suffixed with the run label")
	flag.StringVar(&r.HeatmapOut, "heatmap-out", "",
		"write measurement-window link heatmaps as CSV, one file per run, suffixed with the run label")
	flag.Int64Var(&r.SamplePeriod, "sample-period", 0,
		"counter sampling period in cycles (0 = off; implied 100 by -counters-out)")
	return r
}

// Options translates the flags into the collectors every run carries.
func (r *RunReport) Options() obs.Options {
	period := r.SamplePeriod
	if r.CountersOut != "" && period <= 0 {
		period = 100
	}
	return obs.Options{
		SamplePeriod: period,
		Heatmap:      r.HeatmapOut != "",
		Anatomy:      r.Anatomy || r.AnatomyOut != "",
		Profile:      r.PhaseProfile,
		ProfileEvery: r.ProfileEvery,
	}
}

// Finish serves the run flags for every run of a finished experiment,
// which must have carried Options: it prints each run's latency anatomy
// and phase profile to w under "[<run label>]" and writes its counter,
// heatmap and anatomy CSVs to the flag's path suffixed with the label,
// as the run's stall snapshot is (obs.SuffixPath; a label-less run goes
// by its algorithm). Every file that can be written is. The error names
// each file that could not be and each run whose watchdog tripped, with
// the snapshot it dumped — a stalled run still has a Result, so commands
// print their table, call Finish and exit 1 on its error.
func (r *RunReport) Finish(w io.Writer, runs []*sim.Result) error {
	var lost, stalled []string
	write := func(base, id string, export func(io.Writer) error) {
		if err := WriteFile(obs.SuffixPath(base, id), export); err != nil {
			lost = append(lost, err.Error())
		}
	}
	for _, res := range runs {
		label := res.Config.RunLabel
		if label == "" {
			label = res.Config.Algorithm
		}
		if r.Anatomy {
			fmt.Fprintf(w, "\n[%s] ", label)
			res.Anatomy.Format(w)
		}
		if r.PhaseProfile {
			fmt.Fprintf(w, "\n[%s] ", label)
			res.PerfProfile.Format(w)
		}
		if r.CountersOut != "" {
			write(r.CountersOut, label, res.Obs.Sampler.WriteCSV)
		}
		if r.HeatmapOut != "" {
			write(r.HeatmapOut, label, res.Obs.Heatmap.WriteCSV)
		}
		if r.AnatomyOut != "" {
			write(r.AnatomyOut, label, res.Anatomy.WriteCSV)
			write(r.AnatomyOut, label+"-occupancy", res.Obs.Anatomy.WriteSeriesCSV)
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

// WriteFile creates path and streams export into it.
func WriteFile(path string, export func(io.Writer) error) error {
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
