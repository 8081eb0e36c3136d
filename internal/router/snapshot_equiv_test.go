package router_test

import (
	"math/bits"
	"testing"

	"nocsim/internal/router"
	"nocsim/internal/routing"
	"nocsim/internal/sim"
	"nocsim/internal/topo"
	"nocsim/internal/traffic"
)

// TestSnapshotMatchesSoAState holds the routing.State every algorithm
// decides on — idle masks, owner and footprint registers, the
// per-destination owner index under Footprint, minimal directions — to a
// VC-by-VC recount of the output VC snapshots it is kept in step with, on
// a deliberately wedged fabric. The router flattens per-VC state into
// parallel arrays indexed by (port, vc) and maintains the State at every
// transition, so an indexing slip or a stale mask shows up as a
// disagreement with the recount. Every algorithm runs it: OwnerMask scans
// the registers on a router without an index and reads the index on one
// with it.
//
// The wedged fixture — every node floods node 3, whose endpoint stops
// consuming — matters: it freezes the fabric mid-flight with buffered
// flits, blocked routing VCs, allocated output VCs and live footprint
// owners, so the comparison covers the populated states, not just the
// all-idle reset fabric.
func TestSnapshotMatchesSoAState(t *testing.T) {
	for _, alg := range routing.Names() {
		t.Run(alg, func(t *testing.T) { snapshotMatchesSoAState(t, alg) })
	}
}

func snapshotMatchesSoAState(t *testing.T, alg string) {
	cfg := sim.DefaultConfig()
	cfg.Algorithm = alg
	cfg.Width, cfg.Height = 2, 2
	cfg.VCs = 2
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 200
	cfg.DrainCycles = 400
	cfg.SlowEndpoints = map[int]int{3: 1 << 30} // consumes only at cycle 0
	gen := &traffic.Generator{
		Nodes:   []int{0, 1, 2},
		Pattern: traffic.Permutation{Flows: map[int]int{0: 3, 1: 3, 2: 3}},
		Rate:    1,
	}
	s := sim.MustNew(cfg, gen)
	net := s.Network() // taken before Run, so Run keeps the fabric readable
	res := s.Run()
	if res.Stable {
		t.Fatal("fixture did not wedge; the comparison would only see idle VCs")
	}

	populated := false
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		for d := topo.East; d <= topo.Local; d++ {
			// The routing.State the algorithms read must agree with a
			// VC-by-VC recount of the snapshots it summarizes.
			st := r.State()
			idleBits := uint32(0)
			for v := 0; v < cfg.VCs; v++ {
				ost := r.OutputVCSnapshot(d, v)
				if !ost.Allocated && !ost.AwaitTailCredit && ost.Credits == cfg.BufDepth {
					idleBits |= 1 << uint(v)
				}
				if r.InputVCSnapshot(d, v).State != router.VCStateIdle || ost.Allocated {
					populated = true
				}
			}
			if got := st.Idle[d]; got != idleBits {
				t.Errorf("node %d port %v: Idle %#x, recount %#x", id, d, got, idleBits)
			}
			for lo := 0; lo <= 1; lo++ {
				want := bits.OnesCount32(idleBits >> uint(lo))
				if got := st.IdleCount(d, lo); got != want {
					t.Errorf("node %d port %v: IdleCount(lo=%d) %d, recount %d", id, d, lo, got, want)
				}
			}
			for dest := 0; dest < net.Nodes(); dest++ {
				ownBits, regBits := uint32(0), uint32(0)
				for v := 0; v < cfg.VCs; v++ {
					ost := r.OutputVCSnapshot(d, v)
					if ost.Owner == dest {
						ownBits |= 1 << uint(v)
					}
					if ost.RegOwner == dest {
						regBits |= 1 << uint(v)
					}
				}
				if got := st.OwnerMask(d, dest); got != ownBits {
					t.Errorf("node %d port %v dest %d: OwnerMask %#x, recount %#x", id, d, dest, got, ownBits)
				}
				if got := st.RegOwnerBits(d, dest); got != regBits {
					t.Errorf("node %d port %v dest %d: RegOwnerBits %#x, recount %#x", id, d, dest, got, regBits)
				}
				if st.Owners == nil {
					continue
				}
				if got := st.OwnerBits(d, dest); got != ownBits {
					t.Errorf("node %d port %v dest %d: OwnerBits %#x, recount %#x", id, d, dest, got, ownBits)
				}
				for lo := 0; lo <= 1; lo++ {
					want := bits.OnesCount32(ownBits >> uint(lo))
					if got := st.FootprintCount(d, dest, lo); got != want {
						t.Errorf("node %d port %v dest %d: FootprintCount(lo=%d) %d, recount %d", id, d, dest, lo, got, want)
					}
				}
			}
		}
		for dest := 0; dest < net.Nodes(); dest++ {
			gx, gokx, gy, goky := r.State().MinimalDirs(dest)
			wx, wokx, wy, woky := net.Mesh().MinimalDirs(id, dest)
			if gx != wx || gokx != wokx || gy != wy || goky != woky {
				t.Errorf("node %d dest %d: MinimalDirs (%v %v %v %v), mesh says (%v %v %v %v)",
					id, dest, gx, gokx, gy, goky, wx, wokx, wy, woky)
			}
		}
	}
	if !populated {
		t.Error("no VC left idle state; the wedged fixture regressed and the test lost its coverage")
	}
}
