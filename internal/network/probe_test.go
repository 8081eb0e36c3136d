package network_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// stepPhases is the order in which Step marks the phases of a cycle, each
// once: the delivery pass, then the node phases. Route computation runs
// inside PhaseVCAlloc and is not marked.
var stepPhases = []network.Phase{
	network.PhaseLinkTraversal, network.PhaseVCAlloc, network.PhaseSwitchAlloc,
	network.PhaseInjectEject,
}

// orderProbe instruments every cycle and keeps the first cycle whose
// marks were not stepPhases, or that began or ended out of turn.
type orderProbe struct {
	cycles int64
	open   bool
	now    int64
	marks  []network.Phase
	fault  string
}

func (p *orderProbe) BeginCycle(now int64) bool {
	if p.open || now != p.cycles {
		p.faultf("BeginCycle(%d) after %d cycles, open %v", now, p.cycles, p.open)
	}
	p.open, p.now, p.marks = true, now, p.marks[:0]
	return true
}

func (p *orderProbe) BeginPhase(ph network.Phase) {
	if !p.open {
		p.faultf("BeginPhase(%s) outside a cycle", ph)
	}
	p.marks = append(p.marks, ph)
}

func (p *orderProbe) EndCycle() {
	if !p.open || !slices.Equal(p.marks, stepPhases) {
		p.faultf("cycle %d marked %v, want %v", p.now, p.marks, stepPhases)
	}
	p.open = false
	p.cycles++
}

func (p *orderProbe) faultf(format string, args ...any) {
	if p.fault == "" {
		p.fault = fmt.Sprintf(format, args...)
	}
}

// fabricState is everything a run leaves behind that a probe could have
// disturbed.
type fabricState struct {
	Now, TotalOutputFlits int64
	InFlight              int
	Ejected               []uint64
	Routers               []routerCounters
	Arena                 flit.ArenaStats
}

type routerCounters struct {
	VCAllocFailures                       int64
	OutputFlits, CreditStalls, XbarGrants [topo.NumPorts]int64
	BufferOccupancy                       [topo.NumPorts]int
}

// TestProbedStepIsIdentical: a probe that instruments every cycle sees
// each cycle's phases in Step's documented order and changes nothing. Two
// fabrics built from the same seed, one probed, are stepped past
// saturation on the same offered packets and must end in the same state.
func TestProbedStepIsIdentical(t *testing.T) {
	const cycles = 600
	mesh := topo.MustNew(4, 4)
	for _, alg := range []string{"footprint", "dbar"} {
		t.Run(alg, func(t *testing.T) {
			run := func(probe network.PhaseProbe) fabricState {
				n := network.New(network.Config{
					Mesh:     mesh,
					VCs:      4,
					BufDepth: 4,
					Speedup:  2,
					Alg:      routing.MustNew(alg),
					Rand:     rand.New(rand.NewSource(1)),
				}, nil)
				n.Probe = probe
				var st fabricState
				n.Sink = func(p *flit.Packet) { st.Ejected = append(st.Ejected, p.ID) }
				// Three nodes in four offer every cycle, half of it at
				// one hotspot: well past what the fabric can take.
				load := rand.New(rand.NewSource(2))
				var id uint64
				for c := 0; c < cycles; c++ {
					for src := 0; src < mesh.Nodes(); src++ {
						if load.Intn(4) == 0 {
							continue
						}
						dest := 5
						if load.Intn(2) == 0 {
							dest = load.Intn(mesh.Nodes())
						}
						if dest == src {
							continue
						}
						id++
						p := n.Arena().NewPacket()
						p.ID, p.Src, p.Dest, p.Size, p.Born = id, src, dest, 1+load.Intn(4), n.Now()
						n.Offer(p)
					}
					n.Step()
				}
				st.Now, st.TotalOutputFlits, st.InFlight = n.Now(), n.TotalOutputFlits(), n.InFlight()
				st.Arena = n.Arena().Stats()
				for id := 0; id < mesh.Nodes(); id++ {
					r := n.Router(id)
					rc := routerCounters{VCAllocFailures: r.VCAllocFailures()}
					for d := topo.East; d <= topo.Local; d++ {
						rc.OutputFlits[d] = r.OutputFlits(d)
						rc.CreditStalls[d] = r.CreditStalls(d)
						rc.XbarGrants[d] = r.CrossbarGrants(d)
						for v := 0; v < r.VCs(); v++ {
							rc.BufferOccupancy[d] += r.InputVCSnapshot(d, v).Buffered
						}
					}
					st.Routers = append(st.Routers, rc)
				}
				return st
			}

			bare := run(nil)
			probe := &orderProbe{}
			probed := run(probe)
			if bare.InFlight == 0 || len(bare.Ejected) == 0 {
				t.Fatalf("fixture not past saturation: %d in flight, %d ejected", bare.InFlight, len(bare.Ejected))
			}
			if probe.fault != "" || probe.cycles != cycles {
				t.Errorf("probe saw %d of %d cycles; first fault: %s", probe.cycles, cycles, probe.fault)
			}
			if !reflect.DeepEqual(bare, probed) {
				t.Errorf("the probe changed the fabric: now %d/%d, %d/%d in flight, %d/%d flit-hops, %d/%d ejected, arena %s / %s",
					bare.Now, probed.Now, bare.InFlight, probed.InFlight, bare.TotalOutputFlits, probed.TotalOutputFlits,
					len(bare.Ejected), len(probed.Ejected), bare.Arena, probed.Arena)
				for id := range bare.Routers {
					if bare.Routers[id] != probed.Routers[id] {
						t.Errorf("router %d: %+v, probed %+v", id, bare.Routers[id], probed.Routers[id])
						break
					}
				}
			}
		})
	}
}
