package flit

import (
	"math/rand"
	"testing"
)

// TestArenaRecycling covers the happy path: slots are reused LIFO, stats
// telescope, and handles of live slots resolve to the same address.
func TestArenaRecycling(t *testing.T) {
	a := NewArena()
	f1 := a.NewFlit()
	h1 := f1.Handle()
	if h1 == 0 {
		t.Fatal("arena flit has zero handle")
	}
	if got := a.Flit(h1); got != f1 {
		t.Fatal("Flit(handle) did not resolve to the allocated flit")
	}
	a.FreeFlit(f1)
	f2 := a.NewFlit()
	if f2 != f1 {
		t.Error("free-list did not recycle the slot")
	}
	if f2.Handle() == h1 {
		t.Error("recycled slot reissued the old generation")
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

// TestArenaStaleHandlePanics is the core safety property in its simplest
// form: resolving a handle after its slot was freed (and recycled) must
// panic instead of aliasing the new tenant.
func TestArenaStaleHandlePanics(t *testing.T) {
	a := NewArena()
	f := a.NewFlit()
	h := f.Handle()
	a.FreeFlit(f)
	a.NewFlit() // recycle the slot for a new tenant
	mustPanic(t, "stale handle Get", func() { a.Flit(h) })
}

func TestArenaDoubleFreePanics(t *testing.T) {
	a := NewArena()
	p := a.NewPacket()
	a.FreePacket(p)
	// After the first free the packet no longer carries arena identity,
	// so a second FreePacket is an (intentional) no-op...
	a.FreePacket(p)
	// ...but releasing the original handle again must panic: the
	// generation already moved on.
	p2 := a.NewPacket()
	h := p2.Handle()
	a.FreePacket(p2)
	mustPanic(t, "stale handle release", func() { a.packets.release(h, "packet") })
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
// suite: under randomized alloc/free interleavings, (1) a handle taken
// before a free never resolves after it — generation mismatch panics —
// and (2) the live count always telescopes to allocs − frees, with
// distinct addresses for simultaneously-live flits.
func TestArenaRandomizedAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := NewArena()
	type liveFlit struct {
		f *Flit
		h Handle
	}
	var live []liveFlit
	stale := make(map[Handle]bool)
	allocs, frees := 0, 0

	for step := 0; step < 20000; step++ {
		if len(live) == 0 || rng.Intn(100) < 55 {
			f := a.NewFlit()
			h := f.Handle()
			if stale[h] {
				t.Fatalf("step %d: reissued a previously-freed handle %#x", step, uint64(h))
			}
			f.Seq = step // tag the tenant to catch aliasing below
			live = append(live, liveFlit{f, h})
			allocs++
		} else {
			i := rng.Intn(len(live))
			lf := live[i]
			if got := a.Flit(lf.h); got != lf.f || got.Seq != lf.f.Seq {
				t.Fatalf("step %d: live handle resolved to a different tenant", step)
			}
			a.FreeFlit(lf.f)
			stale[lf.h] = true
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			frees++
		}
		if st := a.Stats(); st.Flits.Live != allocs-frees {
			t.Fatalf("step %d: live %d, want allocs-frees %d", step, st.Flits.Live, allocs-frees)
		}
	}

	// Every stale handle must now panic, no matter how the slot was
	// recycled in the meantime.
	checked := 0
	for h := range stale {
		if checked >= 200 {
			break
		}
		checked++
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("stale handle %#x resolved without panic", uint64(h))
				}
			}()
			a.Flit(h)
		}()
	}
	st := a.Stats()
	if st.Flits.Live != len(live) || int(st.Flits.Allocs) != allocs {
		t.Errorf("final stats %+v, want live=%d allocs=%d", st.Flits, len(live), allocs)
	}
	if st.Flits.HighWater > allocs || st.Flits.HighWater < st.Flits.Live {
		t.Errorf("high-water %d out of range", st.Flits.HighWater)
	}
}

// TestArenaGenerationWrapSkipsZero pins the wraparound rule: generations
// never revisit 0, so an issued handle can never read as "not
// arena-managed".
func TestArenaGenerationWrapSkipsZero(t *testing.T) {
	a := NewArena()
	f := a.NewFlit()
	idx := f.Handle().Index()
	a.FreeFlit(f)
	a.flits.gens[idx] = ^uint32(0) // next release would wrap to 0
	f2 := a.NewFlit()
	if f2.Handle().Generation() != ^uint32(0) {
		t.Fatalf("expected max generation, got %d", f2.Handle().Generation())
	}
	a.FreeFlit(f2)
	if g := a.flits.gens[idx]; g != 1 {
		t.Errorf("generation after wrap = %d, want 1", g)
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
