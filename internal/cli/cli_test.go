package cli

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nocsim/internal/obs"
	"nocsim/internal/sim"
	"nocsim/internal/traffic"
)

// TestFinish drives a healthy and a wedged 2x2 run — every node floods
// node 3, whose endpoint never consumes — through the path the commands
// use (Options onto the config, sim.New, Run, Finish) with every run flag
// set and -heatmap-out pointing into a directory that does not exist:
// both tables appear under each run's label, every writable file lands,
// and the error names the lost heatmaps and the wedged run, and only
// those.
func TestFinish(t *testing.T) {
	dir := t.TempDir()
	stallOut := filepath.Join(dir, "stall.json")
	r := &RunReport{
		Anatomy: true, AnatomyOut: filepath.Join(dir, "a.csv"), PhaseProfile: true,
		CountersOut: filepath.Join(dir, "c.csv"), HeatmapOut: filepath.Join(dir, "missing", "h.csv"),
	}
	run := func(label string, slow map[int]int) *sim.Result {
		cfg := sim.DefaultConfig()
		cfg.Width, cfg.Height, cfg.VCs = 2, 2, 2
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 200, 2000
		cfg.SlowEndpoints = slow
		cfg.RunLabel = label
		cfg.Obs = r.Options()
		cfg.WatchdogCycles, cfg.WatchdogOut = 400, stallOut
		gen := &traffic.Generator{
			Nodes:   []int{0, 1, 2},
			Pattern: traffic.Permutation{Label: "wedge", Flows: map[int]int{0: 3, 1: 3, 2: 3}},
			Rate:    0.2,
		}
		s, err := sim.New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	runs := []*sim.Result{run("healthy", nil), run("wedged", map[int]int{3: 1 << 30})}

	var out strings.Builder
	err := r.Finish(&out, runs)
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
		for _, table := range []string{"latency anatomy", "phase profile"} {
			if head := "\n[" + label + "] " + table; !strings.Contains(out.String(), head) {
				t.Errorf("output lacks %q:\n%s", head, out.String())
			}
		}
		for _, name := range []string{"c_" + label + ".csv", "a_" + label + ".csv", "a_" + label + "-occupancy.csv"} {
			if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
				t.Errorf("%s: not written (%v)", name, err)
			}
		}
	}

	r.HeatmapOut = filepath.Join(dir, "h.csv")
	if err := r.Finish(io.Discard, runs[:1]); err != nil {
		t.Errorf("healthy run with writable paths reported: %v", err)
	}
}

// TestStartUnbindablePprof: an address that cannot be bound is an error
// from Start, not a message from a goroutine after the URL was announced.
func TestStartUnbindablePprof(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener:", err)
	}
	defer ln.Close()
	o := &Obs{Tool: "test", PprofAddr: ln.Addr().String()}
	if err := o.Start(); err == nil || !strings.HasPrefix(err.Error(), "pprof: listen tcp") {
		t.Errorf("Start on an address in use = %v, want a pprof: listen error", err)
	}
	if err := (&Obs{Tool: "test"}).Start(); err != nil {
		t.Errorf("Start without -pprof = %v", err)
	}
}

// TestRunReportOptions: -counters-out alone implies a 100-cycle sampling
// period and an explicit -sample-period wins; -anatomy-out alone enables
// the anatomy collector; -phase-profile selects the profiler.
func TestRunReportOptions(t *testing.T) {
	for _, c := range []struct {
		r    RunReport
		want obs.Options
	}{
		{RunReport{}, obs.Options{}},
		{RunReport{CountersOut: "ts.csv"}, obs.Options{SamplePeriod: 100}},
		{RunReport{CountersOut: "ts.csv", SamplePeriod: 25}, obs.Options{SamplePeriod: 25}},
		{RunReport{HeatmapOut: "h.csv"}, obs.Options{Heatmap: true}},
		{RunReport{Anatomy: true}, obs.Options{Anatomy: true}},
		{RunReport{AnatomyOut: "a.csv"}, obs.Options{Anatomy: true}},
		{RunReport{PhaseProfile: true, ProfileEvery: 8}, obs.Options{Profile: true, ProfileEvery: 8}},
	} {
		if got := c.r.Options(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%+v: options %+v, want %+v", c.r, got, c.want)
		}
	}
}
