package trace

import (
	"fmt"
	"math/rand"

	"nocsim/internal/flit"
	"nocsim/internal/topo"
)

// Player injects a trace into a simulation, honouring record cycles and
// dependencies: a record with Dep only becomes eligible after the record
// it depends on has been delivered. It implements sim.Injector,
// sim.MeshChecker and sim.EjectObserver.
type Player struct {
	records []Record
	next    int // first un-injected record index

	// Dependency state by record position, built by CheckMesh (dep) and
	// Init (the rest): dep[i] is the position of the record that record i
	// waits for (-1 for none) and delivered[i] is set once record i is
	// delivered. The records that wait for record d form a list in record
	// order, from firstWaiter[d] through nextWaiter (-1 ends it); those
	// below next came due before d was delivered and wait for OnEject to
	// release them.
	dep         []int32
	delivered   []bool
	firstWaiter []int32
	nextWaiter  []int32
	ready       []int32 // dependency-satisfied, cycle-due record positions

	// inflight keys by packet pointer, which is stable offer-to-eject
	// even for arena packets: the endpoint recycles a slot only after
	// OnEject (in the Sink chain) has run. The packet's ID cannot serve:
	// the simulation renumbers every packet it is offered.
	inflight map[*flit.Packet]int32 // packet -> record position

	arena *flit.Arena

	// Done counts delivered trace packets; Total is the trace size.
	Done, Total int
}

// UseArena makes the player allocate packets from a instead of the heap;
// the network's endpoints recycle them at ejection. Call before Tick.
func (p *Player) UseArena(a *flit.Arena) { p.arena = a }

// NewPlayer returns a player for records, which must be Validate-clean.
func NewPlayer(records []Record) *Player {
	return &Player{
		records:  records,
		inflight: map[*flit.Packet]int32{},
		Total:    len(records),
	}
}

// CheckMesh implements sim.MeshChecker: it validates the trace against
// m, keeping the dependency positions for Init.
func (p *Player) CheckMesh(m topo.Mesh) error {
	dep, err := depPositions(p.records, m.Nodes())
	if err != nil {
		return fmt.Errorf("trace: invalid trace for %dx%d mesh: %w", m.Width, m.Height, err)
	}
	p.dep = dep
	return nil
}

// Init implements sim.Injector: it builds the dependency state, first
// validating the trace against m unless CheckMesh already has. An
// invalid trace panics.
func (p *Player) Init(m topo.Mesh, _ *rand.Rand) {
	if p.dep == nil {
		if err := p.CheckMesh(m); err != nil {
			panic(err)
		}
	}
	n := len(p.dep)
	p.delivered = make([]bool, n)
	p.firstWaiter, p.nextWaiter = make([]int32, n), make([]int32, n)
	for i := range p.firstWaiter {
		p.firstWaiter[i] = -1
	}
	for i := n - 1; i >= 0; i-- {
		if d := p.dep[i]; d >= 0 {
			p.nextWaiter[i], p.firstWaiter[d] = p.firstWaiter[d], int32(i)
		}
	}
}

// Tick implements sim.Injector: offer the records released since the last
// Tick, in ejection order, then every newly due, dependency-free record,
// in record order.
func (p *Player) Tick(now int64, offer func(*flit.Packet)) {
	for p.next < len(p.records) && p.records[p.next].Cycle <= now {
		if d := p.dep[p.next]; d < 0 || p.delivered[d] {
			p.ready = append(p.ready, int32(p.next))
		}
		p.next++
	}
	for _, i := range p.ready {
		r := &p.records[i]
		var pkt *flit.Packet
		if p.arena != nil {
			pkt = p.arena.NewPacket()
		} else {
			pkt = &flit.Packet{}
		}
		pkt.ID = r.ID
		pkt.Src = r.Src
		pkt.Dest = r.Dest
		pkt.Size = r.Size
		pkt.Born = now
		p.inflight[pkt] = i
		offer(pkt)
	}
	p.ready = p.ready[:0]
}

// OnEject implements sim.EjectObserver: release dependents of the
// delivered record.
func (p *Player) OnEject(pkt *flit.Packet) {
	i, ok := p.inflight[pkt]
	if !ok {
		return // another injector's packet
	}
	delete(p.inflight, pkt)
	p.delivered[i] = true
	p.Done++
	for j := p.firstWaiter[i]; j >= 0 && int(j) < p.next; j = p.nextWaiter[j] {
		p.ready = append(p.ready, j)
	}
}
