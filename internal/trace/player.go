package trace

import (
	"fmt"
	"math/rand"

	"nocsim/internal/flit"
	"nocsim/internal/reuse"
	"nocsim/internal/topo"
)

// Player injects a trace into a simulation, honouring record cycles and
// dependencies: a record with Dep only becomes eligible after the record
// it depends on has been delivered. It implements sim.Injector,
// sim.MeshChecker, sim.EjectObserver and sim.Recycler. A player replays
// its trace once: Recycle hands its index to a later player, so a second
// replay takes a new player from NewPlayer.
type Player struct {
	records []Record
	next    int // first un-injected record index

	// ix is the replay's dependency index, taken by CheckMesh from the
	// players that recycled theirs, and nil again after Recycle.
	ix *index

	arena *flit.Arena

	// Done counts delivered trace packets; Total is the trace size.
	Done, Total int
}

// index is what a player builds for its trace and a later player can
// build on (DESIGN.md, "Recycling"). A zero index is the fresh build:
// every array goes through reuse.Fit and every map is cleared before use.
type index struct {
	// pos maps a record ID to its position; CheckMesh builds it to
	// resolve Dep into dep.
	pos map[uint64]int32

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
}

// indexes holds the indexes of recycled players, for CheckMesh to build
// on. It is shared by every goroutine, sim.Map's workers included, and
// holds at most as many indexes as there were players alive at once.
var indexes reuse.Pool[index]

// UseArena makes the player allocate packets from a instead of the heap;
// the network's endpoints recycle them at ejection. Call before Tick.
func (p *Player) UseArena(a *flit.Arena) { p.arena = a }

// NewPlayer returns a player for records, which must be Validate-clean.
func NewPlayer(records []Record) *Player {
	return &Player{records: records, Total: len(records)}
}

// CheckMesh implements sim.MeshChecker: it validates the trace against
// m, keeping the dependency positions for Init. The index it builds them
// in is a recycled player's when there is one; an invalid trace returns
// it.
func (p *Player) CheckMesh(m topo.Mesh) error {
	if p.ix == nil {
		if p.ix = indexes.Take(nil); p.ix == nil {
			p.ix = &index{}
		}
	}
	ix := p.ix
	if ix.pos == nil {
		ix.pos = make(map[uint64]int32, len(p.records))
	}
	var err error
	if ix.dep, err = depPositions(p.records, m.Nodes(), ix.pos, ix.dep); err != nil {
		p.Recycle()
		return fmt.Errorf("trace: invalid trace for %dx%d mesh: %w", m.Width, m.Height, err)
	}
	return nil
}

// Init implements sim.Injector: it builds the dependency state, first
// validating the trace against m unless CheckMesh already has. An
// invalid trace panics.
func (p *Player) Init(m topo.Mesh, _ *rand.Rand) {
	if p.ix == nil {
		if err := p.CheckMesh(m); err != nil {
			panic(err)
		}
	}
	ix := p.ix
	n := len(ix.dep)
	ix.delivered = reuse.Fit(ix.delivered, n)
	ix.firstWaiter, ix.nextWaiter = reuse.Fit(ix.firstWaiter, n), reuse.Fit(ix.nextWaiter, n)
	for i := range ix.firstWaiter {
		ix.firstWaiter[i] = -1
	}
	for i := n - 1; i >= 0; i-- {
		if d := ix.dep[i]; d >= 0 {
			ix.nextWaiter[i], ix.firstWaiter[d] = ix.firstWaiter[d], int32(i)
		}
	}
	ix.ready = ix.ready[:0]
	if ix.inflight == nil {
		ix.inflight = map[*flit.Packet]int32{}
	}
	clear(ix.inflight)
}

// Recycle implements sim.Recycler: the player's index goes to the pool
// for a later player's CheckMesh to build on, and the player is spent.
// A second Recycle returns nothing.
func (p *Player) Recycle() {
	if p.ix != nil {
		indexes.Put(p.ix)
		p.ix = nil
	}
}

// Tick implements sim.Injector: offer the records released since the last
// Tick, in ejection order, then every newly due, dependency-free record,
// in record order.
func (p *Player) Tick(now int64, offer func(*flit.Packet)) {
	ix := p.ix
	for p.next < len(p.records) && p.records[p.next].Cycle <= now {
		if d := ix.dep[p.next]; d < 0 || ix.delivered[d] {
			ix.ready = append(ix.ready, int32(p.next))
		}
		p.next++
	}
	for _, i := range ix.ready {
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
		ix.inflight[pkt] = i
		offer(pkt)
	}
	ix.ready = ix.ready[:0]
}

// OnEject implements sim.EjectObserver: release dependents of the
// delivered record.
func (p *Player) OnEject(pkt *flit.Packet) {
	ix := p.ix
	i, ok := ix.inflight[pkt]
	if !ok {
		return // another injector's packet
	}
	delete(ix.inflight, pkt)
	ix.delivered[i] = true
	p.Done++
	for j := ix.firstWaiter[i]; j >= 0 && int(j) < p.next; j = ix.nextWaiter[j] {
		ix.ready = append(ix.ready, j)
	}
}
