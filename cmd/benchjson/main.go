// Command benchjson runs the repository's benchmark suite and writes the
// results as machine-readable JSON: ns/op, B/op, allocs/op and every
// custom b.ReportMetric unit of each benchmark, plus an engine reference
// run reporting the simulator's cycles/s, flit-hops/s and cycle-loop
// phase profile (per-phase time and allocation breakdown), and a
// parallel-sweep reference run recording the -jobs worker pool's speedup
// and determinism on a fixed Figure 5 grid. CI runs it in quick mode and
// uploads the file as an artifact, so performance history is a download
// away rather than buried in job logs; cmd/perfgate diffs consecutive
// reports.
//
//	benchjson                           # full suite -> BENCH_<n>.json
//	benchjson -bench 'Figure5|Table2' -benchtime 1x
//	benchjson -jobs 4 -o bench.json
//	benchjson -cpuprofile cpu.pprof -memprofile heap.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	rpprof "runtime/pprof"
	"strings"
	"time"

	"nocsim"
	"nocsim/internal/bench"
	"nocsim/internal/cli"
	"nocsim/internal/exp"
	"nocsim/internal/sim"
)

func main() {
	benchRe := flag.String("bench", ".", "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value (1x = one iteration per benchmark)")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("o", "", "output file (default: next free BENCH_<n>.json)")
	skipEngine := flag.Bool("skip-engine", false, "skip the engine reference run")
	skipParallel := flag.Bool("skip-parallel", false, "skip the parallel-sweep reference run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the reference runs to this file (pprof format, with per-run labels)")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the reference runs to this file")
	jobs := cli.NewJobs()
	flag.Parse()

	rep := bench.Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		BenchRegexp: *benchRe,
		BenchTime:   *benchtime,
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := rpprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			rpprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "benchjson: wrote CPU profile to %s\n", *cpuprofile)
		}()
	}

	if !*skipEngine {
		cfg := exp.QuickProfile().BaseConfig()
		cfg.Obs.Profile = true // phase breakdown rides along in the report
		res, err := nocsim.Run(cfg, "uniform", 0.3)
		if err != nil {
			fatal(err)
		}
		rt := res.Runtime
		rep.Engine = bench.Engine{
			Cycles:         rt.Cycles,
			WallSeconds:    rt.WallSeconds,
			CyclesPerSec:   rt.CyclesPerSec,
			FlitHops:       rt.FlitHops,
			FlitHopsPerSec: rt.FlitHopsPerSec,
			HeapAllocBytes: rt.HeapAllocBytes,
			HeapAllocs:     rt.HeapAllocs,
			Profile:        res.PerfProfile,
		}
		fmt.Fprintf(os.Stderr, "benchjson: engine reference %s\n", rt.String())
		if pp := res.PerfProfile; pp != nil {
			fmt.Fprintf(os.Stderr, "benchjson: engine phases %s\n", pp.String())
			if pp.Arena != nil {
				fmt.Fprintf(os.Stderr, "benchjson: engine arena %s\n", pp.Arena)
			}
		}
	}

	if !*skipParallel {
		ps, err := parallelReference(sim.Jobs(*jobs))
		if err != nil {
			fatal(err)
		}
		rep.Parallel = ps
		note := ""
		if ps.Degenerate() {
			note = " [degenerate: host cannot run jobs in parallel]"
		}
		fmt.Fprintf(os.Stderr,
			"benchjson: parallel sweep %d runs: serial %.2fs, jobs=%d (effective %d) %.2fs (%.2fx, identical=%v)%s\n",
			ps.Runs, ps.SerialSeconds, ps.Jobs, ps.EffectiveJobs, ps.ParallelSeconds, ps.Speedup, ps.Identical, note)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle the heap so the profile reflects live data
		if err := rpprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "benchjson: wrote heap profile to %s\n", *memprofile)
	}

	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", *benchRe, "-benchtime", *benchtime, "-benchmem", *pkg)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	raw, err := io.ReadAll(io.TeeReader(stdout, os.Stderr))
	if err != nil {
		fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		fatal(fmt.Errorf("go test -bench: %w", err))
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if b, ok := bench.ParseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, *b)
		}
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark results matched %q", *benchRe))
	}

	path := *out
	if path == "" {
		path = bench.NextPath(".")
	}
	if err := bench.Write(path, &rep); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark results to %s\n", len(rep.Benchmarks), path)
}

// parallelReference runs the reference sweep — Figure 5 (all seven
// algorithms, single-flit packets) on uniform traffic over a three-point
// rate grid at quick effort — once at Jobs=1 and once at the requested
// worker count, and compares the formatted studies byte for byte. The
// speedup is labeled degenerate when GOMAXPROCS cannot actually schedule
// the requested workers in parallel, so a time-sliced host's ~1.0x is
// not mistaken for a scaling regression.
func parallelReference(jobs int) (bench.ParallelSweep, error) {
	prof := exp.QuickProfile()
	prof.Rates = []float64{0.1, 0.25, 0.4}

	prof.Jobs = 1
	t0 := time.Now()
	serial, err := exp.Figure5(prof, "uniform")
	if err != nil {
		return bench.ParallelSweep{}, err
	}
	serialSec := time.Since(t0).Seconds()

	prof.Jobs = jobs
	t1 := time.Now()
	par, err := exp.Figure5(prof, "uniform")
	if err != nil {
		return bench.ParallelSweep{}, err
	}
	parSec := time.Since(t1).Seconds()

	runs := 0
	for _, c := range serial.Curves {
		runs += len(c.Points)
	}
	gomaxprocs := runtime.GOMAXPROCS(0)
	effective := jobs
	if gomaxprocs < effective {
		effective = gomaxprocs
	}
	ps := bench.ParallelSweep{
		CPUs:              runtime.NumCPU(),
		GOMAXPROCS:        gomaxprocs,
		Jobs:              jobs,
		EffectiveJobs:     effective,
		Runs:              runs,
		SerialSeconds:     serialSec,
		ParallelSeconds:   parSec,
		SpeedupDegenerate: jobs > 1 && gomaxprocs < jobs,
		Identical:         serial.Format() == par.Format(),
	}
	if parSec > 0 {
		ps.Speedup = serialSec / parSec
	}
	return ps, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
