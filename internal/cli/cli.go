// Package cli carries the flag wiring shared by every command: the live
// observability server (-obs-addr), the stall watchdog
// (-watchdog-cycles, -watchdog-out), the pprof endpoint (-pprof), the
// per-run collector exports (-counters-out, -heatmap-out,
// -sample-period) of the experiment harnesses, and the latency-anatomy
// set (-anatomy, -anatomy-out, -anatomy-period).
package cli

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sync"

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

// Obs is the shared observability flag set. Construct with NewObs before
// flag.Parse, Start after.
type Obs struct {
	Tool           string
	Addr           string
	WatchdogCycles int64
	WatchdogOut    string
	PprofAddr      string
	Profile        bool
	ProfileEvery   int64
	StepAll        bool

	Hub    *obs.Hub
	server *obs.Server
}

// NewObs registers -obs-addr, -watchdog-cycles, -watchdog-out and -pprof
// on the default flag set. tool names the command in diagnostics.
func NewObs(tool string) *Obs {
	o := &Obs{Tool: tool}
	flag.StringVar(&o.Addr, "obs-addr", "",
		"serve live observability (/metrics, /status, /snapshot) on this address (e.g. localhost:9090)")
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
	flag.BoolVar(&o.StepAll, "stepall", false,
		"debug: step every router and endpoint every cycle instead of only the active set; results are bit-identical, only slower")
	return o
}

// Start launches the servers the flags asked for: pprof on the default
// mux and the observability endpoints on their own hub. Call after
// flag.Parse; it returns the hub (nil when -obs-addr is unset).
func (o *Obs) Start() *obs.Hub {
	if o.PprofAddr != "" {
		addr := o.PprofAddr
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", o.Tool, err)
			}
		}()
		fmt.Fprintf(os.Stderr, "%s: pprof http://%s/debug/pprof/\n", o.Tool, addr)
	}
	if o.Addr != "" {
		o.Hub = obs.NewHub()
		srv, err := obs.StartServer(o.Addr, o.Hub)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", o.Tool, err)
			os.Exit(1)
		}
		o.server = srv
		fmt.Fprintf(os.Stderr, "%s: observability http://%s/metrics /status /snapshot\n", o.Tool, srv.Addr)
	}
	return o.Hub
}

// Close stops the observability server (the pprof goroutine dies with the
// process).
func (o *Obs) Close() {
	if o.server != nil {
		o.server.Close()
	}
}

// ApplyProfile copies the monitoring, watchdog and phase-profiler flags
// onto an experiment profile.
func (o *Obs) ApplyProfile(p *exp.Profile) {
	p.Monitor = o.Hub
	p.WatchdogCycles = o.WatchdogCycles
	p.WatchdogOut = o.WatchdogOut
	p.StepAll = o.StepAll
	if o.Profile {
		p.Obs.Profile = true
		p.Obs.ProfileEvery = o.ProfileEvery
	}
}

// ApplyConfig copies the monitoring, watchdog and phase-profiler flags
// onto a single simulation config. Call it after the command has built
// cfg.Obs, so the profiler selection survives.
func (o *Obs) ApplyConfig(cfg *sim.Config) {
	cfg.Monitor = o.Hub
	cfg.WatchdogCycles = o.WatchdogCycles
	cfg.WatchdogOut = o.WatchdogOut
	cfg.StepAll = o.StepAll
	if o.Profile {
		cfg.Obs.Profile = true
		cfg.Obs.ProfileEvery = o.ProfileEvery
	}
}

// RunExport is the per-run collector flag set of the experiment
// harnesses: each simulation of a sweep gets its own counter/heatmap
// files, suffixed with the run's identity.
type RunExport struct {
	CountersOut  string
	HeatmapOut   string
	SamplePeriod int64

	tool string

	mu      sync.Mutex // Write is called from parallel sweep workers
	written int
}

// NewRunExport registers -counters-out, -heatmap-out and -sample-period.
func NewRunExport(tool string) *RunExport {
	e := &RunExport{tool: tool}
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

// Enabled reports whether any per-run export was requested.
func (e *RunExport) Enabled() bool {
	return e.CountersOut != "" || e.HeatmapOut != ""
}

// Write exports one run's collector data under the configured base paths,
// suffixed with the run identity (e.g. counters.csv ->
// counters_uniform-footprint-0.30.csv).
func (e *RunExport) Write(runID string, col *obs.Collector) {
	if col == nil {
		return
	}
	if e.CountersOut != "" && col.Sampler != nil {
		e.writeFile(suffixPath(e.CountersOut, runID), col.Sampler.WriteCSV)
	}
	if e.HeatmapOut != "" && col.Heatmap != nil {
		e.writeFile(suffixPath(e.HeatmapOut, runID), col.Heatmap.WriteCSV)
	}
}

// Report prints how many files were written.
func (e *RunExport) Report() {
	e.mu.Lock()
	written := e.written
	e.mu.Unlock()
	if written > 0 {
		fmt.Fprintf(os.Stderr, "%s: wrote %d per-run export files\n", e.tool, written)
	}
}

func (e *RunExport) writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", e.tool, err)
		return
	}
	if err := write(f); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "%s: write %s: %v\n", e.tool, path, err)
		return
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: close %s: %v\n", e.tool, path, err)
		return
	}
	e.mu.Lock()
	e.written++
	e.mu.Unlock()
}

// Anatomy is the shared latency-anatomy flag set: -anatomy collects and
// prints the per-run latency composition and exercised-adaptiveness
// table, -anatomy-out additionally writes per-run CSVs (the aggregate
// plus a -occupancy time-series file), -anatomy-period tunes the
// footprint-occupancy sampling. Construct with NewAnatomy before
// flag.Parse.
type Anatomy struct {
	Print  bool
	Out    string
	Period int64

	tool string

	mu      sync.Mutex // Report may run from parallel sweep exporters
	written int
}

// NewAnatomy registers -anatomy, -anatomy-out and -anatomy-period.
func NewAnatomy(tool string) *Anatomy {
	a := &Anatomy{tool: tool}
	flag.BoolVar(&a.Print, "anatomy", false,
		"collect the latency anatomy (per-hop latency composition, VC-class grant split, exercised adaptiveness) and print it per run")
	flag.StringVar(&a.Out, "anatomy-out", "",
		"write the latency anatomy as CSV, one aggregate file plus one -occupancy time-series file per run, suffixed with the run identity")
	flag.Int64Var(&a.Period, "anatomy-period", 0,
		"footprint-occupancy sampling period in cycles (0 = default 256)")
	return a
}

// Enabled reports whether anatomy collection was requested.
func (a *Anatomy) Enabled() bool { return a.Print || a.Out != "" }

// Apply enables the anatomy collector on o when requested.
func (a *Anatomy) Apply(o *obs.Options) {
	if !a.Enabled() {
		return
	}
	o.Anatomy = true
	o.AnatomyPeriod = a.Period
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
	a.writeFile(suffixPath(a.Out, runID), res.Anatomy.WriteCSV)
	if res.Obs != nil && res.Obs.Anatomy != nil {
		a.writeFile(suffixPath(a.Out, runID+"-occupancy"), res.Obs.Anatomy.WriteSeriesCSV)
	}
}

// Summary prints how many CSV files Report wrote.
func (a *Anatomy) Summary() {
	a.mu.Lock()
	written := a.written
	a.mu.Unlock()
	if written > 0 {
		fmt.Fprintf(os.Stderr, "%s: wrote %d anatomy CSV files\n", a.tool, written)
	}
}

func (a *Anatomy) writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", a.tool, err)
		return
	}
	if err := write(f); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "%s: write %s: %v\n", a.tool, path, err)
		return
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: close %s: %v\n", a.tool, path, err)
		return
	}
	a.mu.Lock()
	a.written++
	a.mu.Unlock()
}

// suffixPath inserts _id before the extension: base.csv -> base_id.csv.
func suffixPath(base, id string) string { return obs.SuffixPath(base, id) }

// Slug reduces a run identity to a filename-safe token.
func Slug(s string) string { return obs.Slug(s) }
