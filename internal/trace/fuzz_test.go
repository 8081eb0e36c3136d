package trace

import (
	"bytes"
	"slices"
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/topo"
)

// FuzzRead ensures the trace decoder never panics or over-allocates on
// arbitrary input; it either returns records or an error.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("NOCT\x01"))
	f.Add([]byte(hugeCount))
	f.Add([]byte("XXXX"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that decodes cleanly must re-encode cleanly if it is
		// structurally valid (ordered, nonzero IDs).
		if Validate(records, 1<<30) == nil {
			var out bytes.Buffer
			if err := Write(&out, records); err != nil {
				t.Fatalf("decoded trace failed to re-encode: %v", err)
			}
		}
	})
}

// FuzzGenerateWorkload checks trace generation stays structurally valid
// under fuzzed workload parameters. It skips exactly the workloads
// Workload.Validate rejects, which Generate refuses with a panic.
func FuzzGenerateWorkload(f *testing.F) {
	f.Add(0.01, 0.5, uint8(8), uint8(4), 0.5, 0.3)
	f.Fuzz(func(t *testing.T, peerRate, duty float64, sharers, share uint8, replyFrac, writeFrac float64) {
		w := Workload{
			Name:           "fuzz",
			PeerRate:       peerRate,
			DirRate:        peerRate,
			DirSharers:     int(sharers%32) + 1,
			DutyCycle:      duty,
			BurstLen:       50,
			ShareDegree:    int(share%16) + 1,
			ReplyFraction:  replyFrac,
			WriteFraction:  writeFrac,
			MaxOutstanding: 8,
		}
		if w.Validate() != nil {
			t.Skip()
		}
		m, _ := newMesh()
		recs := Generate(w, m, 500, 1)
		if err := Validate(recs, m.Nodes()); err != nil {
			t.Fatalf("generated invalid trace: %v", err)
		}
	})
}

// fuzzRecords decodes six bytes a record: mostly valid records on a 2×2
// mesh, with every fault Validate knows within reach. A first byte below
// 16 is the ID (0 or a repeat is a fault), any other numbers the record
// by position; an odd last byte is a Dep on one of IDs 0..23, which may
// name no record.
func fuzzRecords(data []byte) []Record {
	var recs []Record
	cycle := int64(0)
	for i := 0; i+6 <= len(data) && len(recs) < 24; i += 6 {
		b := data[i : i+6]
		r := Record{ID: uint64(len(recs) + 1), Src: int(b[2] % 5), Dest: int(b[3] % 5), Size: int(b[4] % 4)}
		if b[0] < 16 {
			r.ID = uint64(b[0])
		}
		if b[1] == 255 {
			cycle-- // out of order
		} else {
			cycle += int64(b[1] % 3)
		}
		r.Cycle = cycle
		if b[5]%2 == 1 {
			r.Dep = uint64(b[5]>>1) % 24
		}
		recs = append(recs, r)
	}
	return recs
}

// replay drives p as a simulation would for cycles cycles, its packets
// cut from a: each cycle it first ejects a packet another injector sent,
// then ticks p and ejects the oldest packets while more than lag are in
// flight, handing each slot back to a. It returns the IDs p offered, in
// order.
func replay(p *Player, a *flit.Arena, cycles int64, lag int) []uint64 {
	p.UseArena(a)
	var offered []uint64
	var inflight []*flit.Packet
	for now := int64(0); now < cycles; now++ {
		foreign := a.NewPacket()
		p.OnEject(foreign)
		a.FreePacket(foreign)
		p.Tick(now, func(pkt *flit.Packet) {
			offered = append(offered, pkt.ID)
			inflight = append(inflight, pkt)
		})
		for len(inflight) > lag {
			p.OnEject(inflight[0])
			a.FreePacket(inflight[0])
			inflight = inflight[1:]
		}
	}
	return offered
}

// FuzzRecycledCheckMatchesValidate: a player that builds on the index of
// a recycled one — left with delivered bits, IDs, waiters, released
// records and packets in flight of another trace, or by a trace that
// failed its check — checks its trace exactly as Validate does, and
// replays a valid trace as a player on a zero index does, though its
// packets and another injector's reuse the arena slots of the old
// replay's. Recycling a
// player twice returns its index once.
func FuzzRecycledCheckMatchesValidate(f *testing.F) {
	// B depends on ID 3, which only A has.
	f.Add([]byte{1, 0, 0, 1, 1, 0, 2, 1, 1, 0, 1, 3, 3, 1, 2, 3, 1, 0},
		[]byte{1, 0, 0, 1, 1, 0, 2, 0, 1, 2, 1, 7}, uint8(1))
	// B holds ID 1 twice.
	f.Add([]byte{1, 0, 0, 1, 1, 0, 2, 1, 1, 0, 1, 3},
		[]byte{1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0}, uint8(0))
	// Both valid, B shorter, with a chain of dependencies.
	f.Add([]byte{20, 0, 0, 1, 1, 0, 20, 0, 1, 2, 2, 3, 20, 1, 2, 3, 1, 5, 20, 1, 3, 0, 3, 0},
		[]byte{20, 0, 3, 1, 1, 0, 20, 1, 1, 3, 1, 3, 20, 2, 2, 0, 1, 5}, uint8(2))
	// A's last ejection, in its last cycle, releases a record that A
	// never offers.
	f.Add([]byte{20, 2, 0, 1, 1, 0, 20, 2, 1, 2, 1, 0, 20, 2, 2, 3, 1, 0, 20, 2, 3, 0, 1, 0,
		20, 2, 0, 2, 1, 0, 20, 1, 1, 3, 1, 0, 20, 0, 3, 1, 1, 13},
		[]byte{20, 0, 0, 1, 1, 0, 20, 0, 1, 2, 1, 0, 20, 0, 2, 3, 1, 0, 20, 0, 3, 0, 1, 0,
			20, 0, 0, 2, 1, 0, 20, 0, 1, 3, 1, 0, 20, 0, 3, 1, 1, 0}, uint8(0))
	m := topo.MustNew(2, 2)
	f.Fuzz(func(t *testing.T, a, b []byte, lag uint8) {
		for indexes.Take(nil) != nil {
		}
		// pooled returns the pooled indexes, put back last first, and
		// leaves the pool as it found it.
		pooled := func() []*index {
			var all []*index
			for ix := indexes.Take(nil); ix != nil; ix = indexes.Take(nil) {
				all = append(all, ix)
			}
			for i := len(all) - 1; i >= 0; i-- {
				indexes.Put(all[i])
			}
			return all
		}

		arena := flit.NewArena()
		pa := NewPlayer(fuzzRecords(a))
		if pa.CheckMesh(m) == nil {
			pa.Init(m, nil)
			replay(pa, arena, 12, int(lag%4))
		}
		pa.Recycle()
		pa.Recycle()
		free := pooled()
		if len(free) != 1 {
			t.Fatalf("after two Recycles the pool holds %d indexes, want 1", len(free))
		}
		used := free[0]

		recs := fuzzRecords(b)
		pb := NewPlayer(recs)
		err := pb.CheckMesh(m)
		want := Validate(recs, m.Nodes())
		if (err == nil) != (want == nil) || err != nil && err.Error() != "trace: invalid trace for 2x2 mesh: "+want.Error() {
			t.Fatalf("CheckMesh on a recycled index: %v; Validate: %v", err, want)
		}
		if err != nil {
			if free := pooled(); len(free) != 1 || free[0] != used {
				t.Fatal("a failed CheckMesh did not return its index to the pool")
			}
			return
		}
		if pb.ix != used {
			t.Fatal("CheckMesh did not build on the recycled index")
		}
		fresh := NewPlayer(recs)
		if err := fresh.CheckMesh(m); err != nil || fresh.ix == used {
			t.Fatalf("a second player: %v, or it shares the index", err)
		}
		pb.Init(m, nil)
		fresh.Init(m, nil)
		// pb's packets reuse the slots of A's, as a recycled fabric's do.
		arena.Reset()
		got, wantOrder := replay(pb, arena, 40, int(lag%4)), replay(fresh, flit.NewArena(), 40, int(lag%4))
		if !slices.Equal(got, wantOrder) || pb.Done != fresh.Done {
			t.Errorf("replay on a recycled index offered %v (%d done), on a zero index %v (%d done)",
				got, pb.Done, wantOrder, fresh.Done)
		}
	})
}
