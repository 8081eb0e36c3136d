package cli

import (
	"net"
	"path/filepath"
	"strings"
	"testing"

	"nocsim/internal/sim"
	"nocsim/internal/traffic"
)

// TestCheckStalled drives a healthy and a wedged 2x2 run — every node
// floods node 3, whose endpoint never consumes — through the path
// cmd/nocsim uses (ApplyConfig, sim.New, Run, CheckStalled): the error
// must name the wedged run and its dump, and only that one.
func TestCheckStalled(t *testing.T) {
	o := &Obs{Tool: "test", WatchdogCycles: 400, WatchdogOut: filepath.Join(t.TempDir(), "stall.json")}
	run := func(label string, slow map[int]int) *sim.Result {
		cfg := sim.DefaultConfig()
		cfg.Width, cfg.Height, cfg.VCs = 2, 2, 2
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 200, 2000
		cfg.SlowEndpoints = slow
		cfg.RunLabel = label
		o.ApplyConfig(&cfg)
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
	healthy, wedged := run("healthy", nil), run("wedged", map[int]int{3: 1 << 30})

	if err := o.CheckStalled(healthy); err != nil {
		t.Errorf("healthy run reported: %v", err)
	}
	err := o.CheckStalled(healthy, wedged)
	if err == nil {
		t.Fatal("wedged run not reported")
	}
	want := "watchdog: 1 of 2 runs stalled: wedged (snapshot " + o.WatchdogOut + ")"
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
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

// TestRunExportOptions: -counters-out alone implies a 100-cycle sampling
// period; an explicit -sample-period wins.
func TestRunExportOptions(t *testing.T) {
	for _, c := range []struct {
		e      RunExport
		period int64
		heat   bool
	}{
		{RunExport{}, 0, false},
		{RunExport{CountersOut: "ts.csv"}, 100, false},
		{RunExport{CountersOut: "ts.csv", SamplePeriod: 25}, 25, false},
		{RunExport{HeatmapOut: "h.csv"}, 0, true},
	} {
		if got := c.e.Options(); got.SamplePeriod != c.period || got.Heatmap != c.heat {
			t.Errorf("%+v: options %+v, want period %d heatmap %v", c.e, got, c.period, c.heat)
		}
	}
}
