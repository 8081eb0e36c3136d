package trace

import (
	"slices"
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

// TestPlayerReleaseOrder pins the injection order: the records released
// since the last Tick first, in the order their dependencies were
// delivered (the dependents of one record in record order), then the newly
// due records in record order; a dependent that comes due after its
// dependency was delivered goes out when due.
func TestPlayerReleaseOrder(t *testing.T) {
	p := NewPlayer([]Record{
		{ID: 1, Cycle: 0, Src: 0, Dest: 1, Size: 1},
		{ID: 2, Cycle: 0, Src: 1, Dest: 2, Size: 1},
		{ID: 3, Cycle: 1, Src: 1, Dest: 0, Size: 1, Dep: 1},
		{ID: 4, Cycle: 1, Src: 2, Dest: 1, Size: 1, Dep: 2},
		{ID: 5, Cycle: 1, Src: 1, Dest: 3, Size: 1, Dep: 1},
		{ID: 6, Cycle: 2, Src: 3, Dest: 0, Size: 1},
		{ID: 7, Cycle: 5, Src: 1, Dest: 2, Size: 1, Dep: 1},
	})
	p.Init(topo.MustNew(2, 2), nil)
	byID := map[uint64]*flit.Packet{}
	var order []uint64
	tick := func(now int64) {
		p.Tick(now, func(pkt *flit.Packet) { byID[pkt.ID] = pkt; order = append(order, pkt.ID) })
	}
	tick(0)
	tick(1)
	p.OnEject(byID[2])
	p.OnEject(byID[1])
	tick(2)
	tick(3)
	tick(5)
	if want := []uint64{1, 2, 4, 3, 5, 6, 7}; !slices.Equal(order, want) {
		t.Errorf("injection order %v, want %v", order, want)
	}
}
