package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"nocsim/internal/topo"
)

func TestTracerRingRetention(t *testing.T) {
	tr := NewTracer(4)
	for i := int64(0); i < 10; i++ {
		tr.add(Event{Cycle: i, Kind: EventHop, Packet: uint64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 {
		t.Errorf("Total = %d, want 10", tr.Total())
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped())
	}
	events := tr.Events()
	for i, e := range events {
		if want := int64(6 + i); e.Cycle != want {
			t.Errorf("event %d: cycle %d, want %d (chronological order after wrap)", i, e.Cycle, want)
		}
	}
}

func TestTracerNoWrap(t *testing.T) {
	tr := NewTracer(8)
	for i := int64(0); i < 3; i++ {
		tr.add(Event{Cycle: i})
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", tr.Dropped())
	}
	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("Events len = %d, want 3", len(events))
	}
	for i, e := range events {
		if e.Cycle != int64(i) {
			t.Errorf("event %d out of order: cycle %d", i, e.Cycle)
		}
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0)
	if cap(tr.ring) != DefaultTraceCapacity {
		t.Errorf("cap = %d, want %d", cap(tr.ring), DefaultTraceCapacity)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(16)
	tr.add(Event{Cycle: 5, Kind: EventInject, Node: 1, Packet: 42, Src: 1, Dest: 9})
	tr.add(Event{Cycle: 8, Kind: EventGrant, Node: 1, Packet: 42, Src: 1, Dest: 9,
		Dir: topo.East, VC: 3, Waited: 2})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line not JSON: %v", err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["kind"] != "inject" || lines[1]["kind"] != "vc-grant" {
		t.Errorf("kinds = %v, %v", lines[0]["kind"], lines[1]["kind"])
	}
	if lines[1]["dir"] != topo.East.String() {
		t.Errorf("dir = %v, want %v", lines[1]["dir"], topo.East.String())
	}
	if lines[1]["waited"] != float64(2) {
		t.Errorf("waited = %v, want 2", lines[1]["waited"])
	}
}

func TestSamplerBounds(t *testing.T) {
	s := NewSampler(0)
	if s.Period() != 1 {
		t.Errorf("period clamped to %d, want 1", s.Period())
	}
}

func TestOptionsEnabled(t *testing.T) {
	if (Options{}).Enabled() {
		t.Error("zero Options must be disabled")
	}
	for _, o := range []Options{{Trace: true}, {SamplePeriod: 10}, {Heatmap: true}} {
		if !o.Enabled() {
			t.Errorf("%+v should be enabled", o)
		}
	}
	if NewCollector(Options{}) != nil {
		t.Error("disabled options must yield a nil collector")
	}
}
