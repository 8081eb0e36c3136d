package flit

import "testing"

func TestLatencies(t *testing.T) {
	p := &Packet{Born: 100, Inject: 130, Eject: 250}
	if got := p.Latency(); got != 150 {
		t.Errorf("Latency = %d, want 150", got)
	}
}

func TestClassString(t *testing.T) {
	if ClassBackground.String() != "background" || ClassHotspot.String() != "hotspot" {
		t.Error("class strings wrong")
	}
	if Class(7).String() != "Class(7)" {
		t.Errorf("unknown class: %q", Class(7).String())
	}
}
