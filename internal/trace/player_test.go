package trace

import (
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/topo"
)

func TestPlayerRespectsCycles(t *testing.T) {
	p := NewPlayer([]Record{
		{ID: 1, Cycle: 0, Src: 0, Dest: 1, Size: 1},
		{ID: 2, Cycle: 5, Src: 2, Dest: 3, Size: 1},
	})
	p.Init(topo.MustNew(4, 4), nil)
	var got []*flit.Packet
	collect := func(pkt *flit.Packet) { got = append(got, pkt) }
	p.Tick(0, collect)
	if len(got) != 1 || got[0].Dest != 1 {
		t.Fatalf("cycle 0 injected %d packets", len(got))
	}
	p.Tick(3, collect)
	if len(got) != 1 {
		t.Fatal("record 2 injected early")
	}
	p.Tick(5, collect)
	if len(got) != 2 {
		t.Fatal("record 2 not injected at its cycle")
	}
	if got[1].Born != 5 {
		t.Errorf("Born = %d, want 5", got[1].Born)
	}
}

func TestPlayerDependencyGating(t *testing.T) {
	p := NewPlayer([]Record{
		{ID: 1, Cycle: 0, Src: 0, Dest: 1, Size: 1},
		{ID: 2, Cycle: 0, Src: 1, Dest: 0, Size: 5, Dep: 1},
	})
	p.Init(topo.MustNew(4, 4), nil)
	var got []*flit.Packet
	collect := func(pkt *flit.Packet) { got = append(got, pkt) }
	p.Tick(0, collect)
	if len(got) != 1 {
		t.Fatalf("dependent record escaped the gate: %d packets", len(got))
	}
	// Deliver the request.
	p.OnEject(got[0])
	p.Tick(1, collect)
	if len(got) != 2 {
		t.Fatal("dependent record not released after delivery")
	}
	if got[1].Src != 1 || got[1].Size != 5 || got[1].Born != 1 {
		t.Errorf("reply packet wrong: %+v", got[1])
	}
	p.OnEject(got[1])
	if p.Done != 2 || p.Total != 2 {
		t.Errorf("Done/Total = %d/%d", p.Done, p.Total)
	}
}

func TestPlayerIgnoresForeignPackets(t *testing.T) {
	p := NewPlayer([]Record{{ID: 1, Cycle: 0, Src: 0, Dest: 1, Size: 1}})
	p.Init(topo.MustNew(4, 4), nil)
	p.OnEject(&flit.Packet{ID: 999}) // not ours
	if p.Done != 0 {
		t.Error("foreign packet counted")
	}
}

func TestPlayerInitValidates(t *testing.T) {
	p := NewPlayer([]Record{{ID: 1, Cycle: 0, Src: 0, Dest: 99, Size: 1}})
	defer func() {
		if recover() == nil {
			t.Error("invalid trace accepted by Init")
		}
	}()
	p.Init(topo.MustNew(4, 4), nil)
}

// TestPlayerNotFinishedWhileWaiting: a record whose dependency is never
// delivered stays gated however long the player ticks.
func TestPlayerNotFinishedWhileWaiting(t *testing.T) {
	p := NewPlayer([]Record{
		{ID: 1, Cycle: 0, Src: 0, Dest: 1, Size: 1},
		{ID: 2, Cycle: 0, Src: 1, Dest: 0, Size: 1, Dep: 1},
	})
	p.Init(topo.MustNew(4, 4), nil)
	var pkts []*flit.Packet
	for now := int64(0); now < 100; now++ {
		p.Tick(now, func(pkt *flit.Packet) { pkts = append(pkts, pkt) })
	}
	if len(pkts) != 1 || p.Done != 0 {
		t.Errorf("%d packets injected, %d of %d done; want 1 injected, 0 done", len(pkts), p.Done, p.Total)
	}
}
