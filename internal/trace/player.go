package trace

import (
	"fmt"
	"math/rand"

	"nocsim/internal/flit"
	"nocsim/internal/topo"
)

// Player injects a trace into a simulation, honouring record cycles and
// dependencies: a record with Dep only becomes eligible after the record
// it depends on has been delivered. It implements sim.Injector and
// sim.EjectObserver.
type Player struct {
	records []Record
	next    int // first un-injected record index

	waiting   map[uint64][]Record // dep ID -> records blocked on it
	delivered map[uint64]bool
	ready     []Record // dependency-satisfied, cycle-due records

	// inflight keys by packet pointer, which is stable offer-to-eject
	// even for arena packets: the endpoint recycles a slot only after
	// OnEject (in the Sink chain) has run.
	inflight map[*flit.Packet]uint64 // packet -> record ID

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
		records:   records,
		waiting:   map[uint64][]Record{},
		delivered: map[uint64]bool{},
		inflight:  map[*flit.Packet]uint64{},
		Total:     len(records),
	}
}

// Init implements sim.Injector.
func (p *Player) Init(m topo.Mesh, _ *rand.Rand) {
	if err := Validate(p.records, m.Nodes()); err != nil {
		panic(fmt.Sprintf("trace: invalid trace for %dx%d mesh: %v", m.Width, m.Height, err))
	}
}

// Tick implements sim.Injector: offer every due, dependency-free record.
func (p *Player) Tick(now int64, offer func(*flit.Packet)) {
	for p.next < len(p.records) && p.records[p.next].Cycle <= now {
		r := p.records[p.next]
		p.next++
		if r.Dep != 0 && !p.delivered[r.Dep] {
			p.waiting[r.Dep] = append(p.waiting[r.Dep], r)
			continue
		}
		p.ready = append(p.ready, r)
	}
	for _, r := range p.ready {
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
		p.inflight[pkt] = r.ID
		offer(pkt)
	}
	p.ready = p.ready[:0]
}

// OnEject implements sim.EjectObserver: release dependents of the
// delivered record.
func (p *Player) OnEject(pkt *flit.Packet) {
	id, ok := p.inflight[pkt]
	if !ok {
		return // another injector's packet
	}
	delete(p.inflight, pkt)
	p.delivered[id] = true
	p.Done++
	if deps := p.waiting[id]; len(deps) != 0 {
		p.ready = append(p.ready, deps...)
		delete(p.waiting, id)
	}
}
