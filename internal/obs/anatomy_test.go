package obs

import (
	"strings"
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/network"
)

// TestAnatomyDecomposition drives the collector with a hand-written event
// sequence and checks every component charge, that none is negative, the
// telescoping identity (components partition Eject−Born exactly), and the
// decision aggregates.
func TestAnatomyDecomposition(t *testing.T) {
	a := NewAnatomyCollector()
	a.OpenWindow(100, 200)

	p := &flit.Packet{ID: 1, Born: 100, Dest: 5}

	// Source queue 100→103, then two hops and ejection at 115.
	a.onInject(103, p)
	a.onRoute(106, p)                              // route-wait 2, link 1
	a.onGrant(108, p, network.VCClassIdle, 2)      // vc-wait-idle 2
	a.onHeadTraverse(109, p)                       // switch-wait 1
	a.onRoute(111, p)                              // route-wait 1, link 1
	a.onGrant(111, p, network.VCClassFootprint, 0) // vc-wait-footprint 0
	a.onHeadTraverse(112, p)                       // switch-wait 1
	a.onDecision(p, network.Decision{
		MinimalPorts: 2, AdmissibleVCs: 18, OfferedVCs: 9,
		FootprintVCs: 3, IdleVCs: 6, EscapeRequested: true,
	})
	a.onEject(115, p) // serialization 3, latency 15

	agg := a.Aggregate()
	want := Anatomy{
		Packets: 1, Hops: 2,
		SrcQueueCycles:      3,
		RouteWaitCycles:     3,
		SwitchWaitCycles:    2,
		LinkCycles:          2,
		SerializationCycles: 3,
		LatencyCycles:       15,
		Decisions:           1,
		MinimalPortsSum:     2,
		AdmissibleVCsSum:    18, OfferedVCsSum: 9,
		FootprintVCsSum: 3, IdleVCsSum: 6,
		EscapeDecisions: 1,
	}
	want.VCWaitCycles[network.VCClassIdle] = 2
	want.VCWaitCycles[network.VCClassFootprint] = 0
	want.Grants[network.VCClassIdle] = 1
	want.Grants[network.VCClassFootprint] = 1
	if *agg != want {
		t.Errorf("aggregate mismatch:\ngot  %+v\nwant %+v", *agg, want)
	}

	var sum int64
	for _, c := range agg.Components() {
		if c.Cycles < 0 {
			t.Errorf("component %s is %d cycles; no wait is negative", c.Name, c.Cycles)
		}
		sum += c.Cycles
	}
	if sum != agg.LatencyCycles {
		t.Errorf("components sum to %d, want LatencyCycles %d", sum, agg.LatencyCycles)
	}
	if got := agg.PortAdaptivenessExercised(); got != 0.5 {
		t.Errorf("PortAdaptivenessExercised = %v, want 0.5", got)
	}
	if got := agg.VCAdaptivenessExercised(); got != 0.5 {
		t.Errorf("VCAdaptivenessExercised = %v, want 0.5", got)
	}
}

// TestAnatomyMeasuredPopulationGate checks that packets born outside the
// measurement window — and events before the window opens — leave no
// trace in the aggregate, so the anatomy describes exactly the measured
// population.
func TestAnatomyMeasuredPopulationGate(t *testing.T) {
	a := NewAnatomyCollector()

	early := &flit.Packet{ID: 1, Born: 10}
	a.onInject(12, early) // window not open yet
	a.OpenWindow(100, 200)
	late := &flit.Packet{ID: 2, Born: 250}
	a.onInject(252, late) // born after the window closes
	a.onRoute(255, late)
	a.onGrant(256, late, network.VCClassBusy, 1)
	a.onHeadTraverse(257, late)
	a.onDecision(late, network.Decision{MinimalPorts: 2})
	a.onEject(260, late)

	if agg := a.Aggregate(); *agg != (Anatomy{}) {
		t.Errorf("unmeasured packets leaked into the aggregate: %+v", *agg)
	}
}

// TestAnatomyFormatAndCSV smoke-tests the exporters on a populated
// aggregate: the table carries the headline numbers and the CSV carries
// one metric,value row per field.
func TestAnatomyFormatAndCSV(t *testing.T) {
	a := NewAnatomyCollector()
	a.OpenWindow(0, 1000)
	p := &flit.Packet{ID: 7, Born: 0}
	a.onInject(1, p)
	a.onRoute(3, p)
	a.onGrant(4, p, network.VCClassEscape, 1)
	a.onHeadTraverse(5, p)
	a.onEject(6, p)

	agg := a.Aggregate()
	var tbl strings.Builder
	agg.Format(&tbl)
	for _, want := range []string{"latency anatomy: 1 packets", "vc-wait-escape", "vc grants by class:"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("Format output missing %q:\n%s", want, tbl.String())
		}
	}

	var csv strings.Builder
	if err := agg.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"metric,value\n", "packets,1\n", "latency_cycles,6\n", "grants_escape,1\n"} {
		if !strings.Contains(csv.String(), want) {
			t.Errorf("WriteCSV output missing %q:\n%s", want, csv.String())
		}
	}
}

// TestVCClassStrings pins the enum's exporter vocabulary (CSV columns)
// against accidental renames.
func TestVCClassStrings(t *testing.T) {
	want := map[network.VCClass]string{
		network.VCClassIdle:      "idle",
		network.VCClassFootprint: "footprint",
		network.VCClassBusy:      "busy",
		network.VCClassEscape:    "escape",
	}
	if len(want) != network.NumVCClasses {
		t.Fatalf("test covers %d classes, enum has %d", len(want), network.NumVCClasses)
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("VCClass(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}
