package router_test

import (
	"fmt"
	"math/bits"
	"testing"

	"nocsim/internal/router"
	"nocsim/internal/routing"
	"nocsim/internal/sim"
	"nocsim/internal/topo"
	"nocsim/internal/traffic"
)

// TestSnapshotMatchesSoAState cross-checks the two export surfaces of the
// router's struct-of-arrays VC state on a deliberately wedged fabric: the
// snapshot structs that stall post-mortems serialize, and the scalar +
// aggregate accessors (including the bitmask fast paths) that analyzers
// and routing algorithms read live. The allocation overhaul flattened
// per-VC state into parallel arrays indexed by (port, vc) and the router
// keeps a routing.State (idle masks, owner and footprint registers, the
// per-destination owner index under Footprint, neighbour pointers) in step
// with them; every exported field below reads a different slice of that
// layout, so any indexing slip or stale mask shows up as a disagreement
// between two views of the same VC. Every algorithm runs it: OwnerMask
// scans the registers on a router without an index and reads the index
// on one with it.
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
		Pattern: traffic.Permutation{Label: "wedge", Flows: map[int]int{0: 3, 1: 3, 2: 3}},
		Rate:    1,
	}
	s := sim.MustNew(cfg, gen)
	res := s.Run()
	if res.Stable {
		t.Fatal("fixture did not wedge; the comparison would only see idle VCs")
	}
	net := s.Network()

	inChecks := []struct {
		name string
		snap func(st router.InVCState) int
		live func(r *router.Router, d topo.Direction, v int) int
	}{
		{"buffered", func(st router.InVCState) int { return st.Buffered },
			func(r *router.Router, d topo.Direction, v int) int { return r.InputBufferUse(d, v) }},
		{"packet-dest", func(st router.InVCState) int { return st.PacketDest },
			func(r *router.Router, d topo.Direction, v int) int { return r.InputVCDest(d, v) }},
	}
	outChecks := []struct {
		name string
		snap func(st router.OutVCState) int
		live func(r *router.Router, d topo.Direction, v int) int
	}{
		{"allocated", func(st router.OutVCState) int { return b2i(st.Allocated) },
			func(r *router.Router, d topo.Direction, v int) int { return b2i(r.OutVCAllocated(d, v)) }},
		{"owner", func(st router.OutVCState) int { return st.Owner },
			func(r *router.Router, d topo.Direction, v int) int { return r.VCOwner(d, v) }},
		{"free", func(st router.OutVCState) int { return b2i(!st.Allocated && !st.AwaitTailCredit) },
			func(r *router.Router, d topo.Direction, v int) int { return int(r.FreeBits(d) >> uint(v) & 1) }},
		{"idle", func(st router.OutVCState) int {
			return b2i(!st.Allocated && !st.AwaitTailCredit && st.Credits == cfg.BufDepth)
		},
			func(r *router.Router, d topo.Direction, v int) int { return b2i(r.VCIdle(d, v)) }},
	}

	populated := false
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		for d := topo.East; d <= topo.Local; d++ {
			for v := 0; v < cfg.VCs; v++ {
				at := fmt.Sprintf("node %d port %v vc %d", id, d, v)
				ist := r.InputVCSnapshot(d, v)
				for _, c := range inChecks {
					if got, want := c.live(r, d, v), c.snap(ist); got != want {
						t.Errorf("%s: input %s: accessor %d != snapshot %d", at, c.name, got, want)
					}
				}
				ost := r.OutputVCSnapshot(d, v)
				for _, c := range outChecks {
					if got, want := c.live(r, d, v), c.snap(ost); got != want {
						t.Errorf("%s: output %s: accessor %d != snapshot %d", at, c.name, got, want)
					}
				}
				if ist.State != router.VCStateIdle || ost.Allocated {
					populated = true
				}
			}

			// The routing.State the algorithms read must agree with a
			// VC-by-VC recount of the snapshots it summarizes.
			st := r.State()
			idleBits := uint32(0)
			for v := 0; v < cfg.VCs; v++ {
				if r.VCIdle(d, v) {
					idleBits |= 1 << uint(v)
				}
			}
			if got := st.Idle[d]; got != idleBits {
				t.Errorf("node %d port %v: Idle %#x, recount %#x", id, d, got, idleBits)
			}
			if stray := idleBits &^ r.FreeBits(d); stray != 0 {
				t.Errorf("node %d port %v: idle VCs %#x are not free", id, d, stray)
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
					if r.VCOwner(d, v) == dest {
						ownBits |= 1 << uint(v)
					}
					if r.OutputVCSnapshot(d, v).RegOwner == dest {
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

			// The neighbour whose State DownstreamIdle reads is the mesh's.
			var want *routing.State
			if nb, ok := net.Mesh().Neighbor(id, d); ok {
				want = net.Router(nb).State()
			}
			if got := r.Downstream(d); got != want {
				t.Errorf("node %d port %v: downstream State %p, want %p", id, d, got, want)
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

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
