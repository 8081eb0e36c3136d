package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Watchdog detects stalled fabrics: windows of N cycles in which packets
// are in flight but no flit crosses any router output port. The driver
// (simulation or test harness) beats it periodically with the fabric's
// progress counters; on a zero-progress window the watchdog captures a
// structured fabric snapshot and returns a StallReport, turning
// "deadlock?" hangs into actionable post-mortems.
//
// Progress is defined as growth of the total-output-flit counter. A
// saturated-but-live network keeps moving flits and never triggers; a
// wedged one (deadlock, livelocked overlay, dead endpoint) freezes the
// counter while InFlight stays positive.
type Watchdog struct {
	window int64
	snap   func() *FabricSnapshot

	lastWork     int64
	lastProgress int64
	primed       bool
	tripped      bool
}

// NewWatchdog builds a watchdog that trips after window cycles without
// forward progress. snap captures the fabric dump at trip time; it runs
// on the beating goroutine.
func NewWatchdog(window int64, snap func() *FabricSnapshot) *Watchdog {
	if window < 1 {
		window = 1
	}
	return &Watchdog{window: window, snap: snap}
}

// Beat feeds the watchdog the fabric's progress counters at cycle now:
// inFlight packets and workDone, the cumulative flits sent through all
// router output ports. It returns a StallReport on the beat that
// completes a zero-progress window (once per stall; the watchdog re-arms
// when progress resumes), else nil.
func (w *Watchdog) Beat(now int64, inFlight int, workDone int64) *StallReport {
	if !w.primed || workDone != w.lastWork || inFlight == 0 {
		w.lastWork = workDone
		w.lastProgress = now
		w.primed = true
		w.tripped = false
		return nil
	}
	if w.tripped || now-w.lastProgress < w.window {
		return nil
	}
	w.tripped = true
	rep := &StallReport{
		Cycle:      now,
		SinceCycle: w.lastProgress,
		Window:     w.window,
		InFlight:   inFlight,
	}
	if w.snap != nil {
		rep.Snapshot = w.snap()
	}
	return rep
}

// StallReport is the watchdog's post-mortem: when the fabric stopped
// moving and what it looked like.
type StallReport struct {
	// Cycle is when the stall was flagged; SinceCycle is the last cycle
	// with observed forward progress.
	Cycle      int64           `json:"cycle"`
	SinceCycle int64           `json:"since_cycle"`
	Window     int64           `json:"window"`
	InFlight   int             `json:"in_flight"`
	Snapshot   *FabricSnapshot `json:"snapshot,omitempty"`
}

// Summary renders the stall for stderr: the headline plus the snapshot's
// longest blocked-on chains.
func (r *StallReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "WATCHDOG: no forward progress for %d cycles (cycle %d, last progress at %d, %d packets in flight)\n",
		r.Cycle-r.SinceCycle, r.Cycle, r.SinceCycle, r.InFlight)
	if r.Snapshot != nil {
		b.WriteString(r.Snapshot.Summary())
	}
	return strings.TrimRight(b.String(), "\n")
}

// Dump writes the report (snapshot included) as indented JSON to path.
func (r *StallReport) Dump(path string) error {
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
