package flit

import "testing"

func TestSegmentSingleFlit(t *testing.T) {
	p := &Packet{ID: 1, Src: 0, Dest: 5, Size: 1}
	fs := Segment(p)
	if len(fs) != 1 {
		t.Fatalf("len = %d, want 1", len(fs))
	}
	f := fs[0]
	if !f.Head || !f.Tail {
		t.Errorf("single flit must be head and tail, got head=%v tail=%v", f.Head, f.Tail)
	}
	if f.Packet != p || f.Seq != 0 {
		t.Errorf("flit packet/seq wrong: %+v", f)
	}
}

func TestSegmentMultiFlit(t *testing.T) {
	p := &Packet{ID: 2, Size: 5}
	fs := Segment(p)
	if len(fs) != 5 {
		t.Fatalf("len = %d, want 5", len(fs))
	}
	for i, f := range fs {
		if f.Seq != i {
			t.Errorf("flit %d has seq %d", i, f.Seq)
		}
		if f.Head != (i == 0) {
			t.Errorf("flit %d head = %v", i, f.Head)
		}
		if f.Tail != (i == 4) {
			t.Errorf("flit %d tail = %v", i, f.Tail)
		}
	}
}

func TestSegmentPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Segment of size-0 packet did not panic")
		}
	}()
	Segment(&Packet{ID: 3, Size: 0})
}

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
