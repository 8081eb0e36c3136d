package main

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nocsim/internal/obs"
	"nocsim/internal/sim"
	"nocsim/internal/traffic"
)

// nocsim runs the command in-process and returns its exit status,
// stdout and stderr.
func nocsim(args ...string) (int, string, string) {
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// small is a 4x4 single run short enough for a unit test.
var small = []string{"-width", "4", "-height", "4", "-warmup", "100", "-measure", "200", "-drain", "1000"}

// TestCtreeMatchesCommittedTables: Figure 2, Table 1 and the cost
// analysis at the quick profile are byte for byte the committed
// results/fig2_tables.txt.
func TestCtreeMatchesCommittedTables(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "fig2_tables.txt"))
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := nocsim("ctree", "-profile", "quick", "-jobs", "1")
	if code != 0 || out != string(want) {
		t.Errorf("ctree exit %d, stderr %q; stdout differs from results/fig2_tables.txt:\n%s", code, errOut, out)
	}
}

func TestScaleQuick(t *testing.T) {
	code, out, errOut := nocsim("scale", "-sizes", "4x4", "-profile", "quick")
	if code != 0 || !strings.Contains(out, "4x4") {
		t.Errorf("scale exit %d, stderr %q, stdout:\n%s", code, errOut, out)
	}
}

func TestHotspotFlowsPrintsTable3(t *testing.T) {
	want := `Table 3 — hotspot flows (8x8 mesh)
  n0   -> n63
  n7   -> n56
  n24  -> n7
  n31  -> n0
  n32  -> n63
  n39  -> n56
  n56  -> n7
  n63  -> n0
`
	if code, out, _ := nocsim("hotspot", "-flows"); code != 0 || out != want {
		t.Errorf("hotspot -flows exit %d, stdout:\n%s", code, out)
	}
}

// TestBadValues: a value the command cannot use, or a flag the call
// would ignore, is exit 1 with one line on stderr naming it, before any
// simulation.
func TestBadValues(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "t.jsonl")
	for _, c := range []struct {
		args []string
		bad  string
	}{
		{[]string{"scale", "-sizes", "4x"}, `"4x"`},
		{[]string{"traces", "-pairs", "x264"}, `"x264"`},
		{[]string{"traces", "-profile", "quick", "-pairs", "x264+canneal, x264+canneal"}, "x264+canneal is given twice"},
		{[]string{"scale", "-profile", "quick", "-sizes", "4x4,2x2,04x4"}, "4x4 is given twice"},
		{[]string{"-rates", "0.1,x"}, `"x"`},
		{[]string{"-width", "4", "-height", "4", "-warmup", "50", "-measure", "100", "-drain", "200",
			"-rates", "0.1,0.1004"}, "0.1 and 0.1004"},
		{[]string{"-width", "4", "-height", "4", "-warmup", "50", "-measure", "100", "-drain", "200",
			"-rates", "0.2,0.3,0.2"}, "0.2 and 0.2"},
		{[]string{"sweep", "-figure", "9"}, `"9"`},
		// Buffer occupancy and credits are bytes: network.MaxBufDepth.
		{[]string{"-buf", "256"}, "buffer depth 1 to 255, have 256"},
		{[]string{"traces", "-gen", "x264", "-cycles", "0"}, "-cycles 0"},
		{[]string{"traces", "-gen", "x264", "-cycles", "-5"}, "-cycles -5"},
		{[]string{"ctree", "-profile", "nope"}, `"nope"`},
		{[]string{"sweep", "-profile", "nope"}, `"nope"`},
		{[]string{"scale", "-profile", "nope"}, `"nope"`},
		{[]string{"hotspot", "-profile", "nope"}, `"nope"`},
		{[]string{"traces", "-profile", "nope"}, `"nope"`},
		{[]string{"-jobs", "-3"}, "-jobs -3"},
		{[]string{"ctree", "-jobs", "-3"}, "-jobs -3"},
		{[]string{"sweep", "-jobs", "-3"}, "-jobs -3"},
		{[]string{"scale", "-jobs", "-3"}, "-jobs -3"},
		{[]string{"hotspot", "-jobs", "-3"}, "-jobs -3"},
		{[]string{"traces", "-jobs", "-3"}, "-jobs -3"},
		{[]string{"traces", "-gen", "x264", "-jobs", "-3"}, "-jobs -3"},
		{[]string{"-rates", "0.1,0.2", "-trace-jsonl", "t.jsonl"}, "-trace-jsonl"},
		{[]string{"-rates", "0.1,0.2", "-trace-cap", "100"}, "-trace-cap"},
		{[]string{"-rates", "0.1,0.2", "-heatmap"}, "-heatmap"},
		{[]string{"-trace-cap", "100"}, "-trace-cap"},
		{[]string{"-width", "4", "-height", "4", "-warmup", "10", "-measure", "20", "-drain", "100",
			"-trace-cap", "-5", "-trace-jsonl", jsonl}, "-trace-cap -5"},
		{[]string{"-width", "4", "-height", "4", "-warmup", "10", "-measure", "20", "-drain", "100",
			"-trace-cap", "100000000000000", "-trace-jsonl", jsonl}, "trace capacity 100000000000000"},
	} {
		code, out, errOut := nocsim(c.args...)
		if code != 1 || out != "" || strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, c.bad) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 1 and one line naming %s", c.args, code, out, errOut, c.bad)
		}
	}
}

// TestUsageErrors: an unknown command or any argument left after the
// flags is exit 2 with usage, and nothing runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"foo", "-vcs", "0", "-warmup", "0", "-measure", "200", "-drain", "200"},
		{"sweep", "-figure", "5", "extra"},
		{"-vcs", "4", "foo"},
		{"hotspot", "-flows", "x"},
		{"ctree", "-anatomy"},
		{"-sample-period", "100"},
		{"-profile-every", "8"},
	} {
		code, out, errOut := nocsim(args...)
		if code != 2 || out != "" || !strings.Contains(errOut, "usage: nocsim") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 with usage", args, code, out, errOut)
		}
	}
}

// TestPerRunFilePaths: a single run writes -counters-out and
// -heatmap-out to exactly the paths given and confirms each; -rates
// writes one label-suffixed file per rate and flag.
func TestPerRunFilePaths(t *testing.T) {
	dir := t.TempDir()
	c, h := filepath.Join(dir, "c.csv"), filepath.Join(dir, "h.csv")
	written := func() []string {
		es, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range es {
			names = append(names, e.Name())
			os.Remove(filepath.Join(dir, e.Name()))
		}
		return names
	}

	code, out, errOut := nocsim(append(small, "-counters-out", c, "-heatmap-out", h)...)
	if code != 0 || !strings.Contains(out, "counters           "+c+" (") || !strings.Contains(out, "heatmap            "+h+" (") {
		t.Errorf("single run exit %d, stderr %q, stdout:\n%s", code, errOut, out)
	}
	if got, want := written(), []string{"c.csv", "h.csv"}; !slices.Equal(got, want) {
		t.Errorf("single run wrote %q, want %q", got, want)
	}

	code, _, errOut = nocsim(append(small, "-rates", "0.1,0.2", "-counters-out", c, "-heatmap-out", h)...)
	want := []string{"c_footprint-rate-0.100.csv", "c_footprint-rate-0.200.csv", "h_footprint-rate-0.100.csv", "h_footprint-rate-0.200.csv"}
	if got := written(); code != 0 || !slices.Equal(got, want) {
		t.Errorf("-rates exit %d, stderr %q, wrote %q, want %q", code, errOut, got, want)
	}
}

// TestFinish drives a healthy and a wedged 2x2 run — every node floods
// node 3, whose endpoint never consumes — through the path the commands
// use (collectors onto the config, sim.New, Run, finish) with every
// per-run flag set and -heatmap-out pointing into a directory that does
// not exist: the anatomy table appears under each run's label, every writable
// file lands, and the error names the lost heatmaps and the wedged run,
// and only those.
func TestFinish(t *testing.T) {
	dir := t.TempDir()
	stallOut := filepath.Join(dir, "stall.json")
	o := &opts{
		watchdogCycles: 400, watchdogOut: stallOut,
		anatomy: true, anatomyOut: filepath.Join(dir, "a.csv"),
		countersOut: filepath.Join(dir, "c.csv"), heatmapOut: filepath.Join(dir, "missing", "h.csv"),
	}
	simulate := func(label string, slow map[int]int) *sim.Result {
		cfg := sim.DefaultConfig()
		cfg.Width, cfg.Height, cfg.VCs = 2, 2, 2
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 200, 2000
		cfg.SlowEndpoints = slow
		cfg.RunLabel = label
		o.configure(&cfg)
		gen := &traffic.Generator{
			Nodes:   []int{0, 1, 2},
			Pattern: traffic.Permutation{Flows: map[int]int{0: 3, 1: 3, 2: 3}},
			Rate:    0.2,
		}
		s, err := sim.New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	runs := []*sim.Result{simulate("healthy", nil), simulate("wedged", map[int]int{3: 1 << 30})}

	var out strings.Builder
	err := o.finish(&out, runs)
	if err == nil {
		t.Fatal("wedged run and lost files not reported")
	}
	lost := func(label string) string {
		return "open " + filepath.Join(dir, "missing", "h_"+label+".csv") + ": no such file or directory"
	}
	want := "2 per-run files not written: " + lost("healthy") + ", " + lost("wedged") +
		"\nwatchdog: 1 of 2 runs stalled: wedged (snapshot " + stallOut + ")"
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	for _, label := range []string{"healthy", "wedged"} {
		if head := "\n[" + label + "] latency anatomy"; !strings.Contains(out.String(), head) {
			t.Errorf("output lacks %q:\n%s", head, out.String())
		}
		for _, name := range []string{"c_" + label + ".csv", "a_" + label + ".csv"} {
			if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
				t.Errorf("%s: not written (%v)", name, err)
			}
		}
	}

	o.heatmapOut = filepath.Join(dir, "h.csv")
	if err := o.finish(io.Discard, runs[:1]); err != nil {
		t.Errorf("healthy run with writable paths reported: %v", err)
	}
}

// TestStartUnbindablePprof: an address that cannot be bound is an error
// from start, not a message from a goroutine after the URL was announced.
func TestStartUnbindablePprof(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener:", err)
	}
	defer ln.Close()
	o := &opts{tool: "test", pprof: ln.Addr().String()}
	if err := o.start(io.Discard); err == nil || !strings.HasPrefix(err.Error(), "pprof: listen tcp") {
		t.Errorf("start on an address in use = %v, want a pprof: listen error", err)
	}
	if err := (&opts{tool: "test"}).start(io.Discard); err != nil {
		t.Errorf("start without -pprof = %v", err)
	}
}

// TestRunReportOptions: -counters-out implies a 100-cycle sampling
// period; -anatomy-out alone enables the anatomy collector.
func TestRunReportOptions(t *testing.T) {
	for _, c := range []struct {
		o    opts
		want obs.Options
	}{
		{opts{}, obs.Options{}},
		{opts{countersOut: "ts.csv"}, obs.Options{SamplePeriod: 100}},
		{opts{heatmapOut: "h.csv"}, obs.Options{Heatmap: true}},
		{opts{anatomy: true}, obs.Options{Anatomy: true}},
		{opts{anatomyOut: "a.csv"}, obs.Options{Anatomy: true}},
	} {
		var cfg sim.Config
		c.o.configure(&cfg)
		if got := cfg.Obs; !reflect.DeepEqual(got, c.want) {
			t.Errorf("%+v: options %+v, want %+v", c.o, got, c.want)
		}
	}
}
