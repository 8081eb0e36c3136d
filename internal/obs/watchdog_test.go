package obs_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nocsim/internal/obs"
	"nocsim/internal/sim"
	"nocsim/internal/traffic"
)

func TestWatchdogPrimesTripsAndRearms(t *testing.T) {
	wd := obs.NewWatchdog(100, nil)
	if rep := wd.Beat(0, 5, 10); rep != nil {
		t.Fatal("tripped on priming beat")
	}
	if rep := wd.Beat(50, 5, 10); rep != nil {
		t.Fatal("tripped inside the window")
	}
	rep := wd.Beat(100, 5, 10)
	if rep == nil {
		t.Fatal("did not trip after a full zero-progress window")
	}
	if rep.Cycle != 100 || rep.SinceCycle != 0 || rep.InFlight != 5 {
		t.Errorf("report = %+v", rep)
	}
	if rep := wd.Beat(150, 5, 10); rep != nil {
		t.Fatal("tripped twice for the same stall")
	}
	// Progress re-arms it.
	if rep := wd.Beat(200, 5, 11); rep != nil {
		t.Fatal("tripped on a progress beat")
	}
	if rep := wd.Beat(350, 5, 11); rep == nil {
		t.Fatal("did not trip after re-arming")
	}
}

func TestWatchdogIgnoresEmptyFabric(t *testing.T) {
	wd := obs.NewWatchdog(10, nil)
	for now := int64(0); now < 1000; now += 10 {
		if rep := wd.Beat(now, 0, 7); rep != nil {
			t.Fatal("tripped with zero packets in flight")
		}
	}
}

// TestWatchdogWedgedNetwork wedges a 2x2 fabric — every node floods node
// 3, whose endpoint never consumes — and checks the full integration: the
// simulation's heartbeat trips the watchdog, marks the result stalled
// and dumps a stall snapshot whose blocked-on chains name at least one
// blocked VC.
func TestWatchdogWedgedNetwork(t *testing.T) {
	out := filepath.Join(t.TempDir(), "stall.json")
	cfg := sim.DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	cfg.VCs = 2
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 200
	cfg.DrainCycles = 4000
	cfg.SlowEndpoints = map[int]int{3: 1 << 30} // consumes only at cycle 0
	cfg.WatchdogCycles = 400
	cfg.WatchdogOut = out
	gen := &traffic.Generator{
		Nodes:   []int{0, 1, 2},
		Pattern: traffic.Permutation{Flows: map[int]int{0: 3, 1: 3, 2: 3}},
		Rate:    1,
	}
	res := sim.MustNew(cfg, gen).Run()

	if !res.Stalled {
		t.Fatal("wedged run not flagged as stalled")
	}
	if res.Stable {
		t.Error("wedged run reported stable")
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("stall snapshot not written: %v", err)
	}
	var rep obs.StallReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("stall snapshot not valid JSON: %v", err)
	}
	if rep.InFlight == 0 || rep.Cycle-rep.SinceCycle < rep.Window {
		t.Errorf("implausible report: %+v", rep)
	}
	snap := rep.Snapshot
	if snap == nil {
		t.Fatal("stall report carries no fabric snapshot")
	}
	if snap.BlockedVCs == 0 {
		t.Error("wedged fabric snapshot shows no blocked VCs")
	}
	if len(snap.Chains) == 0 {
		t.Fatal("wedged fabric snapshot names no blocked-on chains")
	}
	c := snap.Chains[0]
	if len(c.Links) == 0 {
		t.Fatal("first chain is empty")
	}
	for _, l := range c.Links {
		if l.Reason != "vc-alloc" && l.Reason != "no-credit" {
			t.Errorf("chain link has unknown reason %q", l.Reason)
		}
		if l.Dest != 3 {
			t.Errorf("chain link blocked on unexpected destination %d", l.Dest)
		}
	}
	switch c.Terminal {
	case "ejection-stalled", "cycle":
	default:
		t.Errorf("wedge chain terminal = %q, want ejection-stalled or cycle:\n%s",
			c.Terminal, snap.Summary())
	}
	// The stderr summary names the stall and its chains.
	if s := rep.Summary(); s == "" || !json.Valid(data) {
		t.Errorf("empty summary for %+v", rep)
	}
}
