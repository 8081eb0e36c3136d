package flit

import (
	"slices"
	"testing"
	"unsafe"
)

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

// TestSizes pins the sizes per-packet and per-link memory follow: a
// Packet, its Queue link included, is 80 bytes (Class and Hops share a
// word), and a Credit is two bytes.
func TestSizes(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 80 {
		t.Errorf("Packet is %d bytes, want 80", got)
	}
	if got := unsafe.Sizeof(Credit{}); got != 2 {
		t.Errorf("Credit is %d bytes, want 2", got)
	}
}

// TestQueueFIFO: packets leave a Queue in the order they were pushed,
// across interleaved pushes and pops and after it empties, and a packet
// pushed while it is queued panics.
func TestQueueFIFO(t *testing.T) {
	var q Queue
	ps := make([]Packet, 6)
	for i := range ps {
		ps[i].ID = uint64(i)
	}
	var got []uint64
	pop := func() {
		if p := q.Pop(); p != nil {
			got = append(got, p.ID)
		}
	}
	q.Push(&ps[0])
	q.Push(&ps[1])
	pop()
	q.Push(&ps[2])
	pop()
	pop()
	pop() // empty: nothing
	q.Push(&ps[3])
	q.Push(&ps[4])
	q.Push(&ps[5])
	if q.Len() != 3 {
		t.Errorf("Len = %d, want 3", q.Len())
	}
	for q.Len() > 0 {
		pop()
	}
	if want := []uint64{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("popped %v, want %v", got, want)
	}
	for _, p := range []*Packet{&ps[0], &ps[1]} { // ps[0] as the tail, ps[0] linked to ps[1]
		q.Push(p)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("packet %d pushed twice: no panic", p.ID)
				}
			}()
			q.Push(&ps[0])
		}()
	}
}
