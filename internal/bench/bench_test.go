package bench

import (
	"path/filepath"
	"strings"
	"testing"

	"nocsim/internal/obs"
)

func TestParseLine(t *testing.T) {
	b, ok := ParseLine("BenchmarkFigure5Uniform-8   1   33743302142 ns/op   0.3994 footprint-satTP   3747970128 B/op   59421060 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Name != "Figure5Uniform" || b.Iterations != 1 {
		t.Fatalf("name/iters = %q/%d", b.Name, b.Iterations)
	}
	if b.NsPerOp != 33743302142 || b.BytesPerOp != 3747970128 || b.AllocsPerOp != 59421060 {
		t.Fatalf("std units wrong: %+v", b)
	}
	if b.Metrics["footprint-satTP"] != 0.3994 {
		t.Fatalf("custom metric wrong: %+v", b.Metrics)
	}
}

func TestParseLineSubBench(t *testing.T) {
	b, ok := ParseLine("BenchmarkObsOverhead/disabled-4  1  149685155 ns/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Name != "ObsOverhead/disabled" {
		t.Fatalf("name = %q, want ObsOverhead/disabled", b.Name)
	}
}

func TestParseLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tnocsim\t1.2s",
		"BenchmarkBroken-8 notanint 5 ns/op",
		"",
	} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("parsed noise line %q", line)
		}
	}
}

func TestDegenerate(t *testing.T) {
	cases := []struct {
		name string
		p    ParallelSweep
		want bool
	}{
		{"explicit flag", ParallelSweep{SpeedupDegenerate: true}, true},
		{"gomaxprocs below jobs", ParallelSweep{GOMAXPROCS: 1, CPUs: 1, Jobs: 4}, true},
		{"gomaxprocs covers jobs", ParallelSweep{GOMAXPROCS: 8, CPUs: 8, Jobs: 4}, false},
		{"legacy report, 1 cpu", ParallelSweep{CPUs: 1, Jobs: 4}, true},
		{"legacy report, enough cpus", ParallelSweep{CPUs: 8, Jobs: 4}, false},
		{"serial run", ParallelSweep{GOMAXPROCS: 1, CPUs: 1, Jobs: 1}, false},
	}
	for _, c := range cases {
		if got := c.p.Degenerate(); got != c.want {
			t.Errorf("%s: Degenerate() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestNextAndLatest(t *testing.T) {
	dir := t.TempDir()
	if got, want := NextPath(dir), filepath.Join(dir, "BENCH_1.json"); got != want {
		t.Fatalf("empty dir NextPath = %q, want %q", got, want)
	}
	for _, n := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_3.json", "notes.txt"} {
		if err := Write(filepath.Join(dir, n), &Report{}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := NextPath(dir), filepath.Join(dir, "BENCH_11.json"); got != want {
		t.Fatalf("NextPath = %q, want %q", got, want)
	}
	latest, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_10.json"); latest != want {
		t.Fatalf("Latest = %q, want %q", latest, want)
	}
	old, newest, err := LatestPair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if wantOld := filepath.Join(dir, "BENCH_3.json"); old != wantOld || newest != latest {
		t.Fatalf("LatestPair = (%q, %q), want (%q, %q)", old, newest, wantOld, latest)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_1.json")
	in := &Report{
		GoVersion: "go1.24.0",
		Engine: Engine{
			CyclesPerSec: 8000,
			Profile: &obs.PerfProfile{
				SampleEvery:   64,
				SampledCycles: 19,
				Phases:        []obs.PhaseStats{{Phase: "vc-alloc", Nanos: 123, TimeShare: 0.5}},
			},
		},
		Parallel:   ParallelSweep{CPUs: 1, GOMAXPROCS: 1, Jobs: 4, SpeedupDegenerate: true, Identical: true},
		Benchmarks: []Bench{{Name: "X", Iterations: 1, NsPerOp: 5}},
	}
	if err := Write(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Engine.Profile == nil || out.Engine.Profile.Phases[0].Phase != "vc-alloc" {
		t.Fatalf("profile did not round-trip: %+v", out.Engine)
	}
	if !out.Parallel.Degenerate() {
		t.Fatal("degenerate flag lost in round trip")
	}
}

// TestLoadCommittedTrajectory: every committed BENCH_<n>.json must keep
// loading as the schema sheds fields. BENCH_6.json carries
// engine.route_cache accounts from the removed route-decision cache;
// Load ignores keys it no longer knows, and the gated numbers survive.
func TestLoadCommittedTrajectory(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH files found: %v", err)
	}
	for _, path := range paths {
		r, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if r.Engine.CyclesPerSec <= 0 || len(r.Benchmarks) == 0 {
			t.Errorf("%s: loaded without its engine run or benchmarks: %+v", path, r.Engine)
		}
	}
}

// TestCompare exercises the gate across its verdict space: within
// budget, regressed, improved, hard-broken determinism and a dropped
// benchmark.
func TestCompare(t *testing.T) {
	base := &Report{
		Engine: Engine{CyclesPerSec: 8000, HeapAllocs: 200000, HeapAllocBytes: 13000000},
		Parallel: ParallelSweep{
			CPUs: 1, GOMAXPROCS: 1, Jobs: 4, Runs: 21,
			Speedup: 0.98, SpeedupDegenerate: true, Identical: true,
		},
		Benchmarks: []Bench{{Name: "Table2Config", NsPerOp: 1.5e8, BytesPerOp: 1.4e7, AllocsPerOp: 224818}},
	}
	tol := DefaultTolerances()

	clone := func() *Report {
		c := *base
		c.Benchmarks = append([]Bench(nil), base.Benchmarks...)
		return &c
	}

	t.Run("identical passes", func(t *testing.T) {
		c := Compare(base, clone(), tol)
		if !c.OK() {
			t.Fatalf("identical reports should pass: %+v", c.Regressions())
		}
	})

	t.Run("alloc growth beyond budget regresses", func(t *testing.T) {
		n := clone()
		n.Engine.HeapAllocs = uint64(float64(base.Engine.HeapAllocs) * 1.2)
		c := Compare(base, n, tol)
		if c.OK() {
			t.Fatal("20% alloc growth should fail a 10% budget")
		}
		regs := c.Regressions()
		if len(regs) != 1 || regs[0].Metric != "engine heap allocs" {
			t.Fatalf("regressions = %+v", regs)
		}
	})

	t.Run("alloc growth within budget passes", func(t *testing.T) {
		n := clone()
		n.Engine.HeapAllocs = uint64(float64(base.Engine.HeapAllocs) * 1.05)
		if c := Compare(base, n, tol); !c.OK() {
			t.Fatalf("5%% growth should pass a 10%% budget: %+v", c.Regressions())
		}
	})

	t.Run("cycles drop beyond budget regresses", func(t *testing.T) {
		n := clone()
		n.Engine.CyclesPerSec = base.Engine.CyclesPerSec * 0.5
		if c := Compare(base, n, tol); c.OK() {
			t.Fatal("halved cycles/s should fail a 25% budget")
		}
	})

	t.Run("cycles improvement passes", func(t *testing.T) {
		n := clone()
		n.Engine.CyclesPerSec = base.Engine.CyclesPerSec * 2
		if c := Compare(base, n, tol); !c.OK() {
			t.Fatalf("faster engine should pass: %+v", c.Regressions())
		}
	})

	t.Run("ns/op is informational", func(t *testing.T) {
		n := clone()
		n.Benchmarks[0].NsPerOp = base.Benchmarks[0].NsPerOp * 10
		if c := Compare(base, n, tol); !c.OK() {
			t.Fatalf("ns/op must never gate: %+v", c.Regressions())
		}
	})

	t.Run("lost determinism is broken", func(t *testing.T) {
		n := clone()
		n.Parallel.Identical = false
		c := Compare(base, n, tol)
		if c.OK() || len(c.Broken) != 1 {
			t.Fatalf("lost determinism must hard-fail: broken=%v", c.Broken)
		}
	})

	t.Run("dropped benchmark is broken", func(t *testing.T) {
		n := clone()
		n.Benchmarks = nil
		c := Compare(base, n, tol)
		if c.OK() || len(c.Broken) != 1 {
			t.Fatalf("dropped benchmark must hard-fail: broken=%v", c.Broken)
		}
	})
}

func TestCompareRendering(t *testing.T) {
	oldR := &Report{Engine: Engine{CyclesPerSec: 8000, HeapAllocs: 100}}
	newR := &Report{
		Engine: Engine{
			CyclesPerSec: 7900, HeapAllocs: 150,
			Profile: &obs.PerfProfile{
				SampleEvery: 64, SampledCycles: 10,
				Phases: []obs.PhaseStats{{Phase: "vc-alloc", Nanos: 5e6, TimeShare: 0.5, AllocBytes: 2048, Allocs: 7}},
				GC:     obs.GCStats{NumGC: 2, PauseTotalNanos: 1e6},
			},
		},
		Parallel: ParallelSweep{CPUs: 1, GOMAXPROCS: 1, Jobs: 4, SpeedupDegenerate: true},
	}
	c := Compare(oldR, newR, DefaultTolerances())
	c.OldPath, c.NewPath = "BENCH_1.json", "BENCH_2.json"

	var text strings.Builder
	c.WriteText(&text)
	if !strings.Contains(text.String(), "engine heap allocs") || !strings.Contains(text.String(), "REGRESSED") {
		t.Fatalf("text output missing expected rows:\n%s", text.String())
	}

	var md strings.Builder
	c.WriteMarkdown(&md, newR)
	for _, want := range []string{"| engine cycles/s |", "vc-alloc", "degenerate"} {
		if !strings.Contains(md.String(), want) {
			t.Fatalf("markdown missing %q:\n%s", want, md.String())
		}
	}
	if s := c.Summary(); !strings.Contains(s, "FAIL") {
		t.Fatalf("summary = %q, want FAIL", s)
	}
}
