package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the metric and
// workload tables of this package together, and both inside the
// contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table, limit 2..8", n, len(workloads))
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or why of %d characters", w.Name, len(w.Why))
		}
		if seen[w.Name] {
			t.Errorf("name %q used twice", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s, %s), the table %s (%s, %s)", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, better)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: name %q or unit %q outside the contract's alphabet", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("name %q used twice", g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the table, limit 0.25", g.Name, g.Bound, d.bound)
			case !bounded && (g.Bound != nil || d.bound != 0):
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if d := endToEnd[len(endToEnd)-1]; d.name != "setup_s" || d.unit != "s" || d.higher {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
}

// TestSmokeEmitsEveryMetric runs every workload at self-test size, both
// kinds of run, and checks that each metric BENCHMARK.json names comes
// out once with its unit and that no op fails. At seed 1 this also
// checks the first two ops of every workload against the golden file.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	b := budget{smoke: true}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Nothing here reads a time, so the workloads may share the CPUs.
			t.Parallel()
			plain, _, err := runEndToEnd(w, goldenSeed, b, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, goldenSeed, b, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				rec  runRecord
				defs []metricDef
			}{{plain, endToEnd}, {traced, perLayer}} {
				if !run.rec.Correct || run.rec.Failed != 0 || run.rec.Attempted < 2 {
					t.Errorf("traced=%v: %d of %d ops failed: %v", run.rec.Traced, run.rec.Failed, run.rec.Attempted, run.rec.Failures)
				}
				if len(run.rec.Metrics) != len(run.defs) {
					t.Errorf("traced=%v: %d metrics, want %d", run.rec.Traced, len(run.rec.Metrics), len(run.defs))
				}
				for _, d := range run.defs {
					if got, ok := run.rec.Metrics[d.name]; !ok || got.Unit != d.unit {
						t.Errorf("traced=%v: metric %s: got %+v, want unit %s", run.rec.Traced, d.name, got, d.unit)
					}
				}
			}
		})
	}
}

func TestGoldenCoversEveryOp(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(golden[w.name]) != w.ops {
			t.Errorf("%s: %d golden ops, want %d", w.name, len(golden[w.name]), w.ops)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {19, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75},
		{100, 0.90}, {210, 0.90}, {999, 0.90}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for _, w := range workloads {
		want := 0.90
		if w.name == "hotspot_sat" {
			want = 0.75
		}
		if got := w.tailPct(); got != want {
			t.Errorf("%s: tail percentile %v, want %v", w.name, got, want)
		}
	}
}

// TestQuartiles compares with Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of 1, 3 = %v, %v, want 0.5, 3.5", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, parent: noSpan},
		{name: "sim.New", start: 0, end: 10, parent: 0},
		{name: "sim.Run", start: 10, end: 95, parent: 0},
		// Aggregates: 40 cycles summing to 70, phases inside them to 60.
		{name: "network.Step", end: 70, parent: 2, count: 40},
		{name: "router.vc-alloc", end: 45, parent: 3, count: 40},
		{name: "router.switch-alloc", end: 15, parent: 3, count: 40},
		{name: "injector.Tick", end: 5, parent: 2, count: 40},
		// Children that cover more than the parent clip to zero.
		{name: "sim.Run", start: 100, end: 110, parent: noSpan},
		{name: "network.Step", end: 12, parent: 7, count: 3},
	}
	want := []int64{5, 10, 10, 10, 45, 15, 5, 0, 12}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
	// Run spans total 85 + 10 and keep 10 + 0 for themselves.
	if got, want := selfShare(spans, "sim.Run"), 10.0/95.0; got != want {
		t.Errorf("selfShare(sim.Run) = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "run_ms_p50", bound: 0.07}
	higher := metricDef{name: "cycles_per_s", higher: true, bound: 0.07}
	exact := metricDef{name: "router.vcalloc_fail_per_kcycle", exact: true}
	layer := metricDef{name: "router.vc_alloc_ns_per_cycle"}

	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 110, 70, 125, 95, 135, 75, 105}

	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"clear gain, lower is better", lower, steady, scale(steady, 0.8), verdictGain},
		{"clear gain, higher is better", higher, steady, scale(steady, 1.2), verdictGain},
		{"faster but higher is better: regression", lower, steady, scale(steady, 1.2), verdictRegression},
		{"slower throughput: regression", higher, steady, scale(steady, 0.8), verdictRegression},
		{"within the bound", lower, steady, scale(steady, 1.03), verdictNoWorse},
		{"a gain needs ten pairs", lower, steady[:9], scale(steady[:9], 0.8), verdictNoWorse},
		{"wins in 8 of 10 pairs are not enough", lower, steady,
			[]float64{80, 81, 79, 80, 82, 78, 80, 81, 120, 120}, verdictNoWorse},
		{"median moved less than the parent's quartile distance", lower, noisy, scale(noisy, 0.99), verdictUnresolved},
		{"spread wider than the bound", lower, noisy, noisy, verdictUnresolved},
		{"spread wider than the bound, but every run better", lower, noisy[:5], scale(noisy[:5], 0.5), verdictNoWorse},
		{"per-layer timings do not gate", layer, steady, scale(steady, 1.5), verdictNoWorse},
		{"exact counts equal", exact, steady, steady, verdictEqual},
		{"exact counts differ", exact, steady, scale(steady, 1.0001), verdictDiffers},
		{"no runs", lower, nil, steady, verdictMissing},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}
