package network_test

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"nocsim/internal/network"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// FuzzCreditConservation drives a fuzz-shaped fabric with a finite packet
// schedule and checks credit-based flow control's conservation law after
// every cycle: for each inter-router link and VC, the upstream output
// VC's available credits plus the downstream input VC's buffered flits
// never exceed the buffer depth, and neither side ever goes negative; and
// every router's routing.State — what the algorithms decide on — equals a
// scan of the VC snapshots it is maintained from.
// (Flits and credits staged on the one-cycle channel registers account
// for the remainder, so the observable sum only ever undershoots the
// depth, never overshoots.) Alongside, the arena's live-packet count must
// track the network's in-flight count exactly — the allocation overhaul
// recycles flit and packet slots at ejection, and a leak or double-free
// on any path breaks this equality immediately. And the lists Step follows
// must agree with a scan of the fabric (Network.WakeListFaults): each
// link holding a staged flit or credit on the busy list exactly once and
// no empty one, and the wake set covering the receiving node of every
// staged flit and every node that holds work — what the deleted
// all-nodes and all-links scans computed.
//
// The schedule is finite, so the run must also drain: every credit
// returns, every buffer empties, and the arena's live counts reach zero.
// A fuzz input that fails to drain within the generous cycle budget has
// found a deadlock or a lost credit, either of which is a real bug.
func FuzzCreditConservation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0, 9, 200, 4, 4, 4, 4, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{0xff, 0x55, 0xaa, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66})
	// One seed per algorithm: the first byte picks names[i].
	for i, name := range routing.Names() {
		seed := make([]byte, 40)
		for j := range seed {
			seed[j] = byte(i*53 + j*7 + len(name))
		}
		seed[0] = byte(i)
		f.Add(seed)
	}

	names := routing.Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return int(b)
		}
		pick := func(n int) int { return next() % n }

		name := names[pick(len(names))]
		mesh := topo.MustNew(2+pick(3), 2+pick(3))
		vcs := 2 + pick(3)
		depth := 1 + pick(4)
		cfg := network.Config{
			Mesh:     mesh,
			VCs:      vcs,
			BufDepth: depth,
			Speedup:  1 + pick(2),
			Alg:      routing.MustNew(name),
			Rand:     rand.New(rand.NewSource(int64(next()))),
		}
		// Optionally throttle one endpoint's ejection bandwidth, the
		// paper's second source of endpoint congestion; the interval
		// stays small so the schedule still drains.
		if next()%2 == 0 {
			cfg.SlowEndpoints = map[int]int{pick(mesh.Nodes()): 2 + pick(3)}
		}
		net := network.New(cfg, nil)

		// Finite schedule: a few packets per decoded burst, offered over
		// the first cycles of the run.
		type offer struct {
			cycle     int64
			src, dest int
			size      int
		}
		var schedule []offer
		nPkts := 1 + pick(20)
		var lastOffer int64
		for i := 0; i < nPkts; i++ {
			src := pick(mesh.Nodes())
			dest := pick(mesh.Nodes())
			if dest == src {
				dest = (dest + 1) % mesh.Nodes()
			}
			o := offer{
				cycle: int64(pick(32)),
				src:   src,
				dest:  dest,
				size:  1 + pick(4),
			}
			if o.cycle > lastOffer {
				lastOffer = o.cycle
			}
			schedule = append(schedule, o)
		}

		checkLists := func(cycle int64, when string) {
			if faults := net.WakeListFaults(); len(faults) > 0 {
				t.Fatalf("cycle %d, after %s: wake lists disagree with a scan:\n%s", cycle, when, strings.Join(faults, "\n"))
			}
		}
		checkConservation := func(cycle int64) {
			for id := 0; id < mesh.Nodes(); id++ {
				up := net.Router(id)
				for d := topo.East; d <= topo.South; d++ {
					nb, ok := mesh.Neighbor(id, d)
					if !ok {
						continue
					}
					down := net.Router(nb)
					for v := 0; v < vcs; v++ {
						c := up.OutputVCSnapshot(d, v).Credits
						use := down.InputVCSnapshot(d.Opposite(), v).Buffered
						if c < 0 || use < 0 || c+use > depth {
							t.Fatalf("cycle %d link %d-%v->%d vc %d: credits %d + buffered %d outside [0,%d]",
								cycle, id, d, nb, v, c, use, depth)
						}
					}
				}
			}
			for id := 0; id < mesh.Nodes(); id++ {
				checkRoutingState(t, net, id, depth, cycle)
			}
			st := net.Arena().Stats()
			if st.Packets.Live != net.InFlight() {
				t.Fatalf("cycle %d: arena live packets %d != in-flight %d",
					cycle, st.Packets.Live, net.InFlight())
			}
			checkLists(cycle, "Step")
		}

		const drainBudget = 4000
		var pktID uint64
		for cycle := int64(0); ; cycle++ {
			for _, o := range schedule {
				if o.cycle != cycle {
					continue
				}
				p := net.Arena().NewPacket()
				pktID++
				p.ID = pktID
				p.Src, p.Dest, p.Size = o.src, o.dest, o.size
				p.Born = cycle
				net.Offer(p)
			}
			checkLists(cycle, "the offers")
			net.Step()
			checkConservation(cycle)
			if cycle > lastOffer && net.InFlight() == 0 {
				break
			}
			if cycle > lastOffer+drainBudget {
				t.Fatalf("fabric failed to drain: %d packets still in flight after %d cycles (alg %s, %dx%d, %d VCs, depth %d)",
					net.InFlight(), drainBudget, name, mesh.Width, mesh.Height, vcs, depth)
			}
		}

		// Let credits staged on the channel registers land, then the
		// conservation sums must telescope back to exactly full credit
		// and empty buffers everywhere.
		for i := 0; i < 8; i++ {
			net.Step()
		}
		for id := 0; id < mesh.Nodes(); id++ {
			up := net.Router(id)
			for d := topo.East; d <= topo.South; d++ {
				nb, ok := mesh.Neighbor(id, d)
				if !ok {
					continue
				}
				down := net.Router(nb)
				for v := 0; v < vcs; v++ {
					if c := up.OutputVCSnapshot(d, v).Credits; c != depth {
						t.Fatalf("drained fabric: link %d-%v->%d vc %d has %d credits, want %d",
							id, d, nb, v, c, depth)
					}
					if use := down.InputVCSnapshot(d.Opposite(), v).Buffered; use != 0 {
						t.Fatalf("drained fabric: link %d-%v->%d vc %d still buffers %d flits",
							id, d, nb, v, use)
					}
				}
			}
		}
		st := net.Arena().Stats()
		if st.Flits.Live != 0 || st.Packets.Live != 0 {
			t.Fatalf("drained fabric leaks arena slots: %s", st)
		}
	})
}

// checkRoutingState compares the routing.State of node id's router with a
// scan of its output VC snapshots — owner registers, footprint registers
// and idleness (unallocated, not awaiting a tail credit, depth credits) —
// OwnerMask on every router, the owner index too where there is one, and
// its minimal directions with the mesh's for every destination.
func checkRoutingState(t *testing.T, net *network.Network, id, depth int, cycle int64) {
	t.Helper()
	mesh, r := net.Mesh(), net.Router(id)
	st := r.State()
	for d := topo.East; d <= topo.Local; d++ {
		var idle uint32
		owners := make([]uint32, mesh.Nodes())
		regs := make([]uint32, mesh.Nodes())
		for v := 0; v < r.VCs(); v++ {
			ov := r.OutputVCSnapshot(d, v)
			if !ov.Allocated && !ov.AwaitTailCredit && ov.Credits == depth {
				idle |= 1 << uint(v)
			}
			if ov.Owner >= 0 {
				owners[ov.Owner] |= 1 << uint(v)
			}
			if ov.RegOwner >= 0 {
				regs[ov.RegOwner] |= 1 << uint(v)
			}
		}
		if st.Idle[d] != idle {
			t.Fatalf("cycle %d node %d port %v: State.Idle %#x, scan %#x", cycle, id, d, st.Idle[d], idle)
		}
		for lo := 0; lo <= 1; lo++ {
			if got, want := st.IdleCount(d, lo), bits.OnesCount32(idle>>uint(lo)); got != want {
				t.Fatalf("cycle %d node %d port %v: IdleCount(lo=%d) %d, scan %d", cycle, id, d, lo, got, want)
			}
		}
		for dest := range owners {
			if got := st.OwnerMask(d, dest); got != owners[dest] {
				t.Fatalf("cycle %d node %d port %v dest %d: OwnerMask %#x, scan %#x", cycle, id, d, dest, got, owners[dest])
			}
			if got := st.RegOwnerBits(d, dest); got != regs[dest] {
				t.Fatalf("cycle %d node %d port %v dest %d: RegOwnerBits %#x, scan %#x", cycle, id, d, dest, got, regs[dest])
			}
			if st.Owners == nil {
				continue
			}
			if got := st.OwnerBits(d, dest); got != owners[dest] {
				t.Fatalf("cycle %d node %d port %v dest %d: OwnerBits %#x, scan %#x", cycle, id, d, dest, got, owners[dest])
			}
			for lo := 0; lo <= 1; lo++ {
				if got, want := st.FootprintCount(d, dest, lo), bits.OnesCount32(owners[dest]>>uint(lo)); got != want {
					t.Fatalf("cycle %d node %d port %v dest %d: FootprintCount(lo=%d) %d, scan %d", cycle, id, d, dest, lo, got, want)
				}
			}
		}
	}
	for dest := 0; dest < mesh.Nodes(); dest++ {
		gx, gokx, gy, goky := st.MinimalDirs(dest)
		wx, wokx, wy, woky := mesh.MinimalDirs(id, dest)
		if gx != wx || gokx != wokx || gy != wy || goky != woky {
			t.Fatalf("node %d dest %d: State.MinimalDirs (%v %v %v %v), mesh (%v %v %v %v)",
				id, dest, gx, gokx, gy, goky, wx, wokx, wy, woky)
		}
	}
}
