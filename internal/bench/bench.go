// Package bench defines the BENCH_<n>.json performance-trajectory
// schema shared by cmd/benchjson (the writer) and cmd/perfgate (the
// regression gate): parsed go-test benchmark lines, the engine
// reference run with its cycle-loop phase profile, and the
// parallel-sweep reference with degenerate-host detection. Keeping the
// schema in one package means the gate can never drift from the writer.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"nocsim/internal/obs"
)

// Report is one BENCH_<n>.json document.
type Report struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	BenchRegexp string        `json:"bench_regexp"`
	BenchTime   string        `json:"bench_time"`
	Engine      Engine        `json:"engine"`
	Parallel    ParallelSweep `json:"parallel_sweep"`
	Benchmarks  []Bench       `json:"benchmarks"`
}

// Engine is a fixed reference run of the simulation engine (Table 2
// baseline, uniform traffic at 0.3 flits/node/cycle, quick profile) —
// the simulator's own speed, independent of benchmark iteration counts.
type Engine struct {
	Cycles         int64   `json:"cycles"`
	WallSeconds    float64 `json:"wall_seconds"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	FlitHops       int64   `json:"flit_hops"`
	FlitHopsPerSec float64 `json:"flit_hops_per_sec"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapAllocs     uint64  `json:"heap_allocs"`
	// Profile is the cycle-loop phase profile of the reference run:
	// per-phase time/allocation breakdown plus GC pause and heap-growth
	// accounting. Absent in reports written before the profiler existed.
	Profile *obs.PerfProfile `json:"profile,omitempty"`
}

// ParallelSweep is a fixed reference sweep (Figure 5, uniform traffic,
// reduced rate grid) run twice — serially, then on the -jobs worker
// pool — recording the wall-clock ratio and whether the two sweeps
// formatted identically (the engine's determinism guarantee).
type ParallelSweep struct {
	CPUs int `json:"cpus"`
	// GOMAXPROCS is the scheduler's parallelism bound at run time
	// (0 in reports written before it was recorded; CPUs then stands
	// in). EffectiveJobs = min(Jobs, GOMAXPROCS) is the parallelism the
	// pool can actually realize.
	GOMAXPROCS    int `json:"gomaxprocs,omitempty"`
	Jobs          int `json:"jobs"`
	EffectiveJobs int `json:"effective_jobs,omitempty"`

	Runs            int     `json:"runs"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	// SpeedupDegenerate marks Speedup as meaningless: the host cannot
	// schedule Jobs workers in parallel (GOMAXPROCS < Jobs), so the
	// ratio measures pool bookkeeping on a time-sliced CPU, not
	// parallel scaling. Gates skip degenerate speedups.
	SpeedupDegenerate bool `json:"speedup_degenerate,omitempty"`
	Identical         bool `json:"identical"`
}

// Degenerate reports whether the sweep's speedup is meaningless because
// the host could not run its workers in parallel. Reports written
// before GOMAXPROCS was recorded fall back to the CPU count.
func (p ParallelSweep) Degenerate() bool {
	if p.SpeedupDegenerate {
		return true
	}
	gm := p.GOMAXPROCS
	if gm == 0 {
		gm = p.CPUs
	}
	return p.Jobs > 1 && gm < p.Jobs
}

// Bench is one parsed benchmark result line.
type Bench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the custom b.ReportMetric units (satTP, latency
	// cycles, cycles/s, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// ParseLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   3   123456 ns/op   4.5 custom-unit   67 B/op   8 allocs/op
func ParseLine(line string) (*Bench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return nil, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return nil, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix, keeping sub-benchmark slashes.
	if i := strings.LastIndex(name, "-"); i > 0 && !strings.Contains(name[i:], "/") {
		name = name[:i]
	}
	b := &Bench{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return nil, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// fileRe matches trajectory reports.
var fileRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// list returns the BENCH_<n>.json files of dir sorted by n ascending.
func list(dir string) ([]string, []int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type numbered struct {
		name string
		n    int
	}
	var found []numbered
	for _, e := range entries {
		m := fileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		found = append(found, numbered{e.Name(), n})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	names := make([]string, len(found))
	nums := make([]int, len(found))
	for i, f := range found {
		names[i] = filepath.Join(dir, f.name)
		nums[i] = f.n
	}
	return names, nums, nil
}

// NextPath returns BENCH_<n>.json for the smallest n greater than every
// existing report in dir.
func NextPath(dir string) string {
	next := 1
	if _, nums, err := list(dir); err == nil {
		for _, n := range nums {
			if n >= next {
				next = n + 1
			}
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next))
}

// Latest returns the highest-numbered report path in dir.
func Latest(dir string) (string, error) {
	names, _, err := list(dir)
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", fmt.Errorf("bench: no BENCH_<n>.json in %s", dir)
	}
	return names[len(names)-1], nil
}

// LatestPair returns the two highest-numbered report paths in dir:
// (predecessor, newest).
func LatestPair(dir string) (old, newest string, err error) {
	names, _, err := list(dir)
	if err != nil {
		return "", "", err
	}
	if len(names) < 2 {
		return "", "", fmt.Errorf("bench: need two BENCH_<n>.json in %s to compare, have %d", dir, len(names))
	}
	return names[len(names)-2], names[len(names)-1], nil
}

// Load reads one report.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &r, nil
}

// Write stores the report as indented JSON at path.
func Write(path string, r *Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
