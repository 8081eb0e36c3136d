package flit

import (
	"math/rand"
	"testing"
)

// TestArenaRecycling covers the happy path: slots are reused LIFO, come
// back zeroed, and the stats telescope.
func TestArenaRecycling(t *testing.T) {
	a := NewArena()
	f1 := a.NewFlit()
	a.FreeFlit(f1)
	f2 := a.NewFlit()
	if f2 != f1 {
		t.Error("free-list did not recycle the slot")
	}
	if f2.Seq != 0 || f2.Head || f2.Packet != nil {
		t.Error("recycled flit not zeroed")
	}
	st := a.Stats()
	if st.Flits.Live != 1 || st.Flits.Allocs != 2 || st.Flits.Reused != 1 || st.Flits.HighWater != 1 {
		t.Errorf("stats = %+v", st.Flits)
	}
}

// TestArenaFreeZeroesSlot pins when a slot is wiped: at the free, before
// any reuse, so a pointer kept across FreePacket/FreeFlit reads a zero
// value at once rather than the departed tenant's fields.
func TestArenaFreeZeroesSlot(t *testing.T) {
	a := NewArena()
	p := a.NewPacket()
	p.ID, p.Src, p.Dest, p.Size, p.Born, p.Eject = 7, 1, 2, 3, 10, 40
	f := a.NewFlit()
	f.Packet, f.Seq, f.Tail, f.VC = p, 2, true, 1
	a.FreeFlit(f)
	a.FreePacket(p)
	if *p != (Packet{}) {
		t.Errorf("freed packet slot reads %+v, want the zero Packet", *p)
	}
	if *f != (Flit{}) {
		t.Errorf("freed flit slot reads %+v, want the zero Flit", *f)
	}
}

// TestArenaResetServesAsNew: an arena reset with live and freed slots
// across more than one chunk hands out zero slots in the order a new
// arena does, keeps its chunks, and restarts its accounting.
func TestArenaResetServesAsNew(t *testing.T) {
	a := NewArena()
	const n = arenaChunkSize + 3
	var live []*Packet
	for i := 0; i < n; i++ {
		p := a.NewPacket()
		p.ID, p.Dest = uint64(i+1), i
		live = append(live, p)
	}
	for i := 0; i < n; i += 3 {
		a.FreePacket(live[i])
	}
	chunks := len(a.packets.chunks)
	a.Reset()
	if st := a.Stats(); st != (ArenaStats{}) {
		t.Errorf("stats after Reset = %+v, want zero", st)
	}
	for i := 0; i < n; i++ {
		// A new arena cuts its slots in order, chunk by chunk.
		p := a.NewPacket()
		if p != &a.packets.chunks[i/arenaChunkSize][i%arenaChunkSize] {
			t.Fatalf("allocation %d after Reset is not slot %d", i, i)
		}
		if *p != (Packet{arena: a}) {
			t.Fatalf("allocation %d after Reset reads %+v, want a zero packet", i, *p)
		}
	}
	if len(a.packets.chunks) != chunks {
		t.Errorf("Reset then refill: %d chunks, had %d", len(a.packets.chunks), chunks)
	}
}

// TestArenaSecondFreeIsNoOp: a freed slot no longer names its arena, so
// freeing the same pointer again changes nothing — the slot is not listed
// twice and the live count does not drop below zero.
func TestArenaSecondFreeIsNoOp(t *testing.T) {
	a := NewArena()
	p := a.NewPacket()
	a.FreePacket(p)
	a.FreePacket(p)
	if st := a.Stats().Packets; st.Live != 0 || st.Free != 1 {
		t.Errorf("after two frees of one packet: live %d, free %d; want 0 and 1", st.Live, st.Free)
	}
	if p1, p2 := a.NewPacket(), a.NewPacket(); p1 == p2 {
		t.Error("one slot handed to two live packets")
	}
}

func TestArenaForeignOwnership(t *testing.T) {
	a, b := NewArena(), NewArena()
	f := a.NewFlit()
	mustPanic(t, "foreign-arena free", func() { b.FreeFlit(f) })
	// Heap-allocated units are ignored, so callers can free
	// unconditionally.
	a.FreeFlit(&Flit{})
	a.FreePacket(&Packet{})
}

// TestArenaRandomizedAliasing is the property test of the invariant
// suite: under randomized alloc/free interleavings, (1) the live count
// always telescopes to allocs − frees, and (2) simultaneously-live flits
// have distinct addresses, each still holding the tag its tenant wrote.
func TestArenaRandomizedAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := NewArena()
	var live []*Flit
	allocs, frees := 0, 0

	for step := 0; step < 20000; step++ {
		if len(live) == 0 || rng.Intn(100) < 55 {
			f := a.NewFlit()
			if f.Seq != 0 || f.Packet != nil {
				t.Fatalf("step %d: new flit holds a former tenant's fields", step)
			}
			f.Seq = step + 1 // tag the tenant to catch aliasing below
			live = append(live, f)
			allocs++
		} else {
			i := rng.Intn(len(live))
			a.FreeFlit(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			frees++
		}
		if st := a.Stats(); st.Flits.Live != allocs-frees {
			t.Fatalf("step %d: live %d, want allocs-frees %d", step, st.Flits.Live, allocs-frees)
		}
	}

	// Every live flit has its own slot and its own tag.
	seen := make(map[*Flit]bool, len(live))
	tags := make(map[int]bool, len(live))
	for _, f := range live {
		if seen[f] || tags[f.Seq] || f.Seq == 0 {
			t.Fatalf("live flit %p (tag %d) aliases another tenant", f, f.Seq)
		}
		seen[f], tags[f.Seq] = true, true
	}
	st := a.Stats()
	if st.Flits.Live != len(live) || int(st.Flits.Allocs) != allocs {
		t.Errorf("final stats %+v, want live=%d allocs=%d", st.Flits, len(live), allocs)
	}
	if st.Flits.HighWater > allocs || st.Flits.HighWater < st.Flits.Live {
		t.Errorf("high-water %d out of range", st.Flits.HighWater)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
