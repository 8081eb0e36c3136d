package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"nocsim/internal/sim"
)

// processStart is read as early as a Go program can read a clock; set-up
// time is counted from it.
var processStart = time.Now()

// sinceStart is the benchmark's clock: ns since the process started.
func sinceStart() int64 { return int64(time.Since(processStart)) }

// budget says how much one run measures.
type budget struct {
	// seconds is how long a run measures: an untraced run starts passes
	// until that much time has passed, a traced run sizes its rounds and
	// fixture loops to it.
	seconds float64
	// smoke shrinks everything to a self-test: one pass over two ops per
	// workload, one set-up, fixture loops of a few ms.
	smoke bool
}

// setups is how often set-up is repeated for the median.
func (b budget) setups() int {
	if b.smoke {
		return 1
	}
	return 3
}

// more reports whether another pass should start after done passes and
// elapsed ns of measuring. A timed run makes at least two, so that the
// cross-pass identity check has something to compare.
func (b budget) more(done int, elapsed int64) bool {
	if b.smoke {
		return done < 1
	}
	return done < 2 || float64(elapsed) < b.seconds*1e9
}

// setUp does everything a run needs before its first timed op: the
// zero-load exactness check, the golden file, the op list with its
// fixtures, and one untimed warm-up op.
func setUp(w *workload, seed int64, smoke bool) ([]op, []goldenOp, error) {
	if err := zeroLoadCheck(); err != nil {
		return nil, nil, err
	}
	golden, err := loadGolden()
	if err != nil {
		return nil, nil, err
	}
	ops, err := w.build(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	if len(ops) != w.ops {
		return nil, nil, fmt.Errorf("%s: built %d ops, want %d", w.name, len(ops), w.ops)
	}
	if smoke {
		ops = ops[:2]
	}
	if out := execPublic(&ops[0]); out.err != nil {
		return nil, nil, fmt.Errorf("%s: warm-up op: %w", w.name, out.err)
	}
	var want []goldenOp
	if seed == goldenSeed {
		want = golden[w.name]
	}
	return ops, want, nil
}

// repeatSetUp runs setUp n times and returns the last one's products
// with the median duration in seconds. The first duration is counted
// from process start, so it includes the runtime's own start-up.
func repeatSetUp(w *workload, seed int64, b budget) ([]op, []goldenOp, float64, error) {
	var (
		ops    []op
		golden []goldenOp
		took   []float64
	)
	for i := 0; i < b.setups(); i++ {
		t0 := sinceStart()
		if i == 0 {
			t0 = 0
		}
		var err error
		ops, golden, err = setUp(w, seed, b.smoke)
		if err != nil {
			return nil, nil, 0, err
		}
		took = append(took, float64(sinceStart()-t0)/1e9)
	}
	return ops, golden, median(took), nil
}

// execPublic runs one op through its public entry point and times it. A
// panic is recovered and reported as the op's failure.
func execPublic(o *op) (out opOutcome) {
	start := sinceStart()
	defer func() {
		if p := recover(); p != nil {
			out = failedOutcome(o.label, fmt.Errorf("panic: %v", p))
		}
		out.start = start
	}()
	r, err := o.run()
	end := sinceStart()
	out = outcomeOf(o.label, r, err)
	out.end = end
	return out
}

// pass is one execution of the op list.
type pass struct {
	start, end int64
	ops        []opOutcome
}

func (p *pass) cycles() int64 {
	var n int64
	for i := range p.ops {
		n += p.ops[i].golden.Cycles
	}
	return n
}

// wallNs is the pass's duration without the reference chases the jobs
// workers made between its ops.
func (p *pass) wallNs(jobs int) int64 {
	var chase int64
	for i := range p.ops {
		chase += p.ops[i].chaseNs
	}
	return p.end - p.start - chase/int64(jobs)
}

// runPass executes n ops on jobs workers through sim.Map, which runs them
// inline on the caller's goroutine when jobs is 1. Op failures are kept
// in the outcomes, so every op of the pass runs.
func runPass(n, jobs int, exec func(i int) opOutcome) pass {
	p := pass{start: sinceStart()}
	// exec never fails the Map call, so its error is always nil.
	p.ops, _ = sim.Map(jobs, n, func(i int) (opOutcome, error) { return exec(i), nil })
	p.end = sinceStart()
	return p
}

// runPublicPass executes the op list once through the public entry
// points, with nothing between the ops.
func runPublicPass(ops []op, jobs int) pass {
	return runPass(len(ops), jobs, func(i int) opOutcome { return execPublic(&ops[i]) })
}

// calibrated names the end-to-end metrics that are host times; all but
// cycles_per_s are durations.
var calibrated = []string{"cycles_per_s", "run_ms_p50", "run_ms_tail", "cpu_ns_per_cycle", "setup_s"}

// hostUsage is the process's resource use so far.
type hostUsage struct {
	cpuNs     int64
	maxRSSKB  int64
	mallocs   uint64
	allocated uint64
}

func readUsage() hostUsage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostUsage{
		cpuNs:     ru.Utime.Nano() + ru.Stime.Nano(),
		maxRSSKB:  int64(ru.Maxrss),
		mallocs:   ms.Mallocs,
		allocated: ms.TotalAlloc,
	}
}

// checkPasses applies the correctness checks that need no second kind
// of run: every op against the golden file when the seed has one, and
// every pass against the first. It returns one line per failed op.
func checkPasses(passes []pass, golden []goldenOp) []string {
	var failures []string
	for pi := range passes {
		for i, out := range passes[pi].ops {
			what, want := "pass 1", passes[0].ops[i].golden
			if golden != nil {
				if i >= len(golden) {
					failures = append(failures, fmt.Sprintf("%s: no golden entry", out.golden.Label))
					continue
				}
				what, want = "golden", golden[i]
			}
			if msg := checkAgainst(what, out, want); msg != "" {
				failures = append(failures, fmt.Sprintf("pass %d: %s", pi+1, msg))
			}
		}
	}
	return failures
}

// runEndToEnd is the untraced run of one workload: set-up, timed passes
// under a closed loop, the checks, and the end-to-end metrics. It also
// returns the first pass's ops as golden entries; recording says they
// are about to replace the golden file, which is then not checked.
func runEndToEnd(w *workload, seed int64, b budget, recording bool) (runRecord, []goldenOp, error) {
	rec := runRecord{Workload: w.name, Seed: seed, TailPercentile: w.tailPct()}
	ops, golden, setupS, err := repeatSetUp(w, seed, b)
	if err != nil {
		return rec, nil, err
	}
	if recording {
		golden = nil
	}
	// A pool's workers would time each other's ops with the chase, not
	// the host, so only single-goroutine workloads are calibrated.
	var cal *calibrator
	if !w.parallel {
		if cal, err = newCalibrator(); err != nil {
			return rec, nil, fmt.Errorf("reference chase: %w", err)
		}
	}

	var passes []pass
	u0 := readUsage()
	t0 := sinceStart()
	for b.more(len(passes), sinceStart()-t0) {
		passes = append(passes, runPass(len(ops), w.jobs(), func(i int) opOutcome {
			out := execPublic(&ops[i])
			if cal != nil {
				out.chaseNs = cal.after(i)
			}
			return out
		}))
	}
	u1 := readUsage()

	var (
		cycles  int64
		chaseNs int64
		cps     []float64
		wallMs  []float64
	)
	for pi := range passes {
		cycles += passes[pi].cycles()
		cps = append(cps, float64(passes[pi].cycles())/(float64(passes[pi].wallNs(w.jobs()))/1e9))
		for i := range passes[pi].ops {
			wallMs = append(wallMs, float64(passes[pi].ops[i].wallNs())/1e6)
			chaseNs += passes[pi].ops[i].chaseNs
		}
	}
	rec.Passes, rec.Ops = len(passes), len(wallMs)
	rec.Failures = checkPasses(passes, golden)
	rec.Attempted, rec.Failed = len(wallMs), len(rec.Failures)
	rec.Correct = rec.Failed == 0

	kcycles := float64(cycles) / 1000
	m := metricSet{
		"cycles_per_s":        median(cps),
		"run_ms_p50":          median(wallMs),
		"run_ms_tail":         quantile(wallMs, w.tailPct()),
		"cpu_ns_per_cycle":    float64(u1.cpuNs-u0.cpuNs-chaseNs) / float64(cycles),
		"allocs_per_kcycle":   float64(u1.mallocs-u0.mallocs) / kcycles,
		"alloc_kb_per_kcycle": float64(u1.allocated-u0.allocated) / 1024 / kcycles,
		"peak_rss_mb":         float64(u1.maxRSSKB) / 1024,
		"setup_s":             setupS,
	}
	if cal != nil {
		// The host times go onto the calibrated clock; the record keeps
		// what they were before, and the factor.
		slow := slowdown(chaseNs, len(wallMs))
		rec.Raw = metricSet{"host_slowdown": slow}
		for _, name := range calibrated {
			rec.Raw[name] = m[name]
			if name == "cycles_per_s" {
				m[name] *= slow
			} else {
				m[name] /= slow
			}
		}
	}
	rec.Metrics, err = complete(endToEnd, m)
	return rec, outcomesToGolden(passes[0].ops), err
}

func outcomesToGolden(outs []opOutcome) []goldenOp {
	g := make([]goldenOp, len(outs))
	for i := range outs {
		g[i] = outs[i].golden
	}
	return g
}
