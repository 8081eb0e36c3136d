package network_test

import (
	"fmt"
	"math/rand"

	"nocsim/internal/alloc"
	"nocsim/internal/flit"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// This file is the reference fabric: the Table 2 router written as plainly
// as it can be, for the lockstep tests to hold network.Network against.
// Input and output VCs are structs, each link is a one-cycle register,
// every node and every VC is visited every cycle, and VC requests are a
// list built by looping over the VCs. Of the engine it reuses only what
// the paper specifies as a unit: the routing algorithms' decisions (and
// the routing.State they read, rebuilt from the VC structs before every
// decision), the separable VC allocator and the round-robin arbiter. It
// shares no code with internal/router or internal/network: no worklist,
// no busy-link list, no port or VC masks, no mask-form allocation.

const refStageCap = 4 // output stage depth, absorbing the speedup

// Input VC states.
const (
	refIdle = iota
	refRouting
	refActive
)

// refInVC is one input virtual channel.
type refInVC struct {
	state   int
	buf     []*flit.Flit // FIFO, front first
	outDir  topo.Direction
	outVC   int
	blocked int64 // consecutive cycles the head failed VC allocation
	routed  bool  // the head has been routed at least once here
	dec     routing.Decision
}

// refOutVC is one output virtual channel with its Section 4.4 registers.
type refOutVC struct {
	alloc     bool // held by a packet
	awaitTail bool // conservative reallocation: waiting for the tail credit
	credits   int
	owner     int // destination of the packets in the downstream buffer, -1 once drained
	regOwner  int // destination of the last packet granted the VC, -1 before the first
}

// free: the VC may be granted; idle: free, with every credit home.
func (o *refOutVC) free() bool          { return !o.alloc && !o.awaitTail }
func (o *refOutVC) idle(depth int) bool { return o.free() && o.credits == depth }

// refLink is a link with one cycle of latency: a flit and the credits
// sent during a cycle are delivered at the start of the next.
type refLink struct {
	sent, arrived     *flit.Flit
	sentCr, arrivedCr []flit.Credit
}

func (l *refLink) tick() {
	l.arrived, l.sent = l.sent, nil
	l.arrivedCr, l.sentCr = l.sentCr, nil
}

// refRouter is one router. Ports are indexed by topo.Direction.
type refRouter struct {
	f               *refFabric
	id              int
	alg             routing.Algorithm
	in              [topo.NumPorts][]refInVC
	out             [topo.NumPorts][]refOutVC
	inLink, outLink [topo.NumPorts]*refLink
	stage           [topo.NumPorts][]*flit.Flit
	saIn, saOut     [topo.NumPorts]*alloc.RoundRobin
	va              *alloc.VCAllocator
	st              routing.State // what Decide reads; rebuilt by State

	outFlits, creditStalls, xbarGrants [topo.NumPorts]int64
	vcAllocFails                       int64
}

// refEndpoint is one node's network interface: an unbounded source
// queue injecting one flit a cycle, and ejection buffers drained one flit
// every interval cycles.
type refEndpoint struct {
	f                   *refFabric
	id, interval        int
	queue               []*flit.Packet
	cur                 *flit.Packet // packet being injected
	next, injVC, pickRR int          // its next flit and VC; the VC pick's pointer
	credits             []int        // per router local input VC
	held                []bool
	ejBuf               [][]*flit.Flit
	consume             *alloc.RoundRobin
	inj, ej             *refLink
}

// refFabric is the reference mesh.
type refFabric struct {
	mesh                          topo.Mesh
	vcs, depth, speedup, inFlight int
	now                           int64
	rng                           *rand.Rand
	routers                       []*refRouter
	eps                           []*refEndpoint
	links                         []*refLink
	sink                          func(p *flit.Packet)
}

// newRefFabric builds the reference for the same parameters as a
// network.Config; slow maps a node to its ejection interval.
func newRefFabric(m topo.Mesh, vcs, depth, speedup int, newAlg func() routing.Algorithm, rng *rand.Rand, slow map[int]int) *refFabric {
	f := &refFabric{mesh: m, vcs: vcs, depth: depth, speedup: speedup, rng: rng}
	newLink := func() *refLink { l := &refLink{}; f.links = append(f.links, l); return l }
	for id := 0; id < m.Nodes(); id++ {
		r := &refRouter{f: f, id: id, alg: newAlg(), va: alloc.NewVCAllocator(topo.NumPorts*vcs, topo.NumPorts*vcs)}
		r.st = routing.NewState(m, id, vcs, r.alg)
		for p := 0; p < topo.NumPorts; p++ {
			r.in[p] = make([]refInVC, vcs)
			r.out[p] = make([]refOutVC, vcs)
			for v := range r.out[p] {
				r.out[p][v] = refOutVC{credits: depth, owner: -1, regOwner: -1}
			}
			r.saIn[p], r.saOut[p] = alloc.NewRoundRobin(vcs), alloc.NewRoundRobin(topo.NumPorts)
		}
		f.routers = append(f.routers, r)
	}
	for id, r := range f.routers {
		for d := topo.East; d <= topo.South; d++ {
			if nb, ok := m.Neighbor(id, d); ok {
				r.outLink[d] = newLink()
				f.routers[nb].inLink[d.Opposite()] = r.outLink[d]
			}
		}
		e := &refEndpoint{f: f, id: id, interval: 1, injVC: -1, credits: make([]int, vcs), held: make([]bool, vcs),
			ejBuf: make([][]*flit.Flit, vcs), consume: alloc.NewRoundRobin(vcs), inj: newLink(), ej: newLink()}
		if iv, ok := slow[id]; ok {
			e.interval = iv
		}
		for v := range e.credits {
			e.credits[v] = depth // every local input VC's buffer is empty
		}
		r.inLink[topo.Local], r.outLink[topo.Local] = e.inj, e.ej
		f.eps = append(f.eps, e)
	}
	return f
}

// offer queues p at its source.
func (f *refFabric) offer(p *flit.Packet) {
	f.inFlight++
	f.eps[p.Src].queue = append(f.eps[p.Src].queue, p)
}

// step advances one cycle: every link delivers, every router routes and
// allocates VCs, every router allocates the switch and traverses, every
// endpoint consumes and injects, every link ticks.
func (f *refFabric) step() {
	for _, r := range f.routers {
		for p := 0; p < topo.NumPorts; p++ {
			if l := r.inLink[p]; l != nil && l.arrived != nil {
				r.acceptFlit(p, l.arrived)
			}
			if l := r.outLink[p]; l != nil {
				r.acceptCredits(p, l.arrivedCr)
			}
		}
	}
	for _, e := range f.eps {
		if fl := e.ej.arrived; fl != nil {
			e.ejBuf[fl.VC] = append(e.ejBuf[fl.VC], fl)
		}
		for _, cr := range e.inj.arrivedCr {
			e.credits[cr.VC]++
		}
	}
	for _, r := range f.routers {
		r.allocateVCs()
	}
	for _, r := range f.routers {
		r.switchAndTraverse()
	}
	for _, e := range f.eps {
		e.consumeFlit()
		e.inject()
	}
	for _, l := range f.links {
		l.tick()
	}
	f.now++
}

func (r *refRouter) acceptFlit(p int, fl *flit.Flit) {
	ivc := &r.in[p][fl.VC]
	if len(ivc.buf) >= r.f.depth {
		panic(fmt.Sprintf("reference: router %d input buffer overflow port %d vc %d", r.id, p, fl.VC))
	}
	ivc.buf = append(ivc.buf, fl)
	if fl.Head {
		fl.Packet.Hops++
	}
	if ivc.state == refIdle { // fl is a head
		ivc.startRouting()
	}
}

func (ivc *refInVC) startRouting() {
	ivc.state, ivc.routed, ivc.blocked = refRouting, false, 0
}

func (r *refRouter) acceptCredits(p int, crs []flit.Credit) {
	for _, cr := range crs {
		o := &r.out[p][cr.VC]
		if o.credits++; o.credits > r.f.depth {
			panic(fmt.Sprintf("reference: router %d credit overflow port %d vc %d", r.id, p, cr.VC))
		}
		if cr.Tail {
			o.awaitTail = false
		}
		if o.idle(r.f.depth) {
			o.owner = -1 // the owner register clears once the VC drains
		}
	}
}

// allocateVCs routes every head in the routing state, lowest port and VC
// first, and lists its requests for the free VCs it asked for; the
// allocator grants from the list, and every head left ungranted counts a
// failed cycle.
func (r *refRouter) allocateVCs() {
	vcs := r.f.vcs
	var reqs []alloc.VCRequest
	for p := 0; p < topo.NumPorts; p++ {
		for v := range r.in[p] {
			ivc := &r.in[p][v]
			if ivc.state != refRouting {
				continue
			}
			if dest := ivc.buf[0].Packet.Dest; dest == r.id {
				ivc.dec = routing.Decision{Dir: topo.Local} // eject: any local VC
				for w := 0; w < vcs; w++ {
					ivc.dec.Pri[alloc.Low] |= 1 << uint(w)
				}
			} else {
				ivc.dec = r.alg.Decide(&routing.Context{
					Mesh: r.f.mesh, Cur: r.id, Dest: dest, InDir: topo.Direction(p), View: r, Rand: r.f.rng,
				})
			}
			ivc.routed = true
			q := p*vcs + v
			for w := 0; w < vcs; w++ {
				if pri := ivc.dec.PriOf(w); pri != alloc.None && r.out[ivc.dec.Dir][w].free() {
					reqs = append(reqs, alloc.VCRequest{Requester: q, Resource: int(ivc.dec.Dir)*vcs + w, Pri: pri})
				}
			}
			if ivc.dec.HasEsc && r.out[ivc.dec.Esc][0].free() {
				reqs = append(reqs, alloc.VCRequest{Requester: q, Resource: int(ivc.dec.Esc) * vcs, Pri: alloc.Lowest})
			}
		}
	}
	for _, g := range r.va.Allocate(reqs) {
		ivc := &r.in[g.Requester/vcs][g.Requester%vcs]
		ivc.state, ivc.outDir, ivc.outVC = refActive, topo.Direction(g.Resource/vcs), g.Resource%vcs
		o := &r.out[ivc.outDir][ivc.outVC]
		dest := ivc.buf[0].Packet.Dest
		o.alloc, o.owner, o.regOwner = true, dest, dest
	}
	for p := range r.in {
		for v := range r.in[p] {
			if r.in[p][v].state == refRouting {
				r.in[p][v].blocked++
				r.vcAllocFails++
			}
		}
	}
}

// switchAndTraverse runs Speedup rounds of switch allocation — every input
// port nominates one ready VC, every output port grants one nominee — and
// then sends one staged flit per output link.
func (r *refRouter) switchAndTraverse() {
	for it := 0; it < r.f.speedup; it++ {
		var nom [topo.NumPorts]int
		var want [topo.NumPorts][]bool // [output][input]
		for o := range want {
			want[o] = make([]bool, topo.NumPorts)
		}
		for p := range r.in {
			ready := make([]bool, r.f.vcs)
			for v := range r.in[p] {
				ivc := &r.in[p][v]
				if ivc.state != refActive || len(ivc.buf) == 0 {
					continue
				}
				switch {
				case r.out[ivc.outDir][ivc.outVC].credits > 0 && len(r.stage[ivc.outDir]) < refStageCap:
					ready[v] = true
				case it == 0 && r.out[ivc.outDir][ivc.outVC].credits == 0:
					r.creditStalls[ivc.outDir]++ // backpressure from downstream
				}
			}
			if nom[p] = r.saIn[p].Arbitrate(ready); nom[p] >= 0 {
				want[r.in[p][nom[p]].outDir][p] = true
			}
		}
		for o := range want {
			if p := r.saOut[o].Arbitrate(want[o]); p >= 0 {
				r.traverse(p, nom[p])
			}
		}
	}
	for o := range r.stage {
		if l := r.outLink[o]; len(r.stage[o]) > 0 && l != nil && l.sent == nil {
			l.sent, r.stage[o] = r.stage[o][0], r.stage[o][1:]
			r.outFlits[o]++
		}
	}
}

// traverse moves the front flit of input VC (p, v) into its output stage
// and returns its buffer slot's credit upstream; the tail releases both
// VCs.
func (r *refRouter) traverse(p, v int) {
	ivc := &r.in[p][v]
	fl := ivc.buf[0]
	ivc.buf = ivc.buf[1:]
	o := &r.out[ivc.outDir][ivc.outVC]
	fl.VC = ivc.outVC
	o.credits--
	r.stage[ivc.outDir] = append(r.stage[ivc.outDir], fl)
	r.xbarGrants[ivc.outDir]++
	if l := r.inLink[p]; l != nil {
		l.sentCr = append(l.sentCr, flit.Credit{VC: uint8(v), Tail: fl.Tail})
	}
	if !fl.Tail {
		return
	}
	o.alloc = false
	if r.alg.UsesEscape() {
		o.awaitTail = true
	}
	ivc.state = refIdle
	if len(ivc.buf) > 0 { // the next packet's head
		ivc.startRouting()
	}
}

// State implements routing.View: the routing.State Decide reads, derived
// afresh from the output VC structs.
func (r *refRouter) State() *routing.State {
	for d := range r.out {
		r.st.Idle[d] = 0
		for v := range r.out[d] {
			o := &r.out[d][v]
			if o.idle(r.f.depth) {
				r.st.Idle[d] |= 1 << uint(v)
			}
			r.st.SetOwner(topo.Direction(d), v, o.owner)
			r.st.RegOwner[d*r.f.vcs+v] = int32(o.regOwner)
		}
	}
	return &r.st
}

// DownstreamIdle implements routing.View: the idle adaptive VCs of the
// neighbour behind port d on its productive ports toward dest (its
// ejection port when it is dest), counted VC by VC.
func (r *refRouter) DownstreamIdle(d topo.Direction, dest int) int {
	id, ok := r.f.mesh.Neighbor(r.id, d)
	if !ok {
		return 0
	}
	nb, n := r.f.routers[id], 0
	dx, hasX, dy, hasY := r.f.mesh.MinimalDirs(id, dest)
	for _, p := range []struct {
		d  topo.Direction
		ok bool
	}{{dx, hasX}, {dy, hasY}, {topo.Local, !hasX && !hasY}} {
		for v := nb.st.Lo; v < r.f.vcs && p.ok; v++ {
			if nb.out[p.d][v].idle(r.f.depth) {
				n++
			}
		}
	}
	return n
}

// consumeFlit drains one ejected flit, round-robin over the non-empty
// VCs, once every interval cycles, and completes its packet at the tail.
func (e *refEndpoint) consumeFlit() {
	if e.f.now%int64(e.interval) != 0 {
		return
	}
	nonEmpty := make([]bool, e.f.vcs)
	for v := range e.ejBuf {
		nonEmpty[v] = len(e.ejBuf[v]) > 0
	}
	v := e.consume.Arbitrate(nonEmpty)
	if v < 0 {
		return
	}
	fl := e.ejBuf[v][0]
	e.ejBuf[v] = e.ejBuf[v][1:]
	e.ej.sentCr = append(e.ej.sentCr, flit.Credit{VC: uint8(v), Tail: fl.Tail})
	if fl.Tail {
		fl.Packet.Eject = e.f.now
		e.f.inFlight--
		e.f.sink(fl.Packet)
	}
}

// inject sends the next flit of the packet at the head of the queue; a
// new packet first claims the unheld local VC with the most credits,
// round-robin among ties.
func (e *refEndpoint) inject() {
	if e.cur == nil {
		if len(e.queue) == 0 {
			return
		}
		best := -1
		for i := range e.credits {
			v := (e.pickRR + i) % len(e.credits)
			if !e.held[v] && (best < 0 || e.credits[v] > e.credits[best]) {
				best = v
			}
		}
		if best < 0 {
			return
		}
		e.pickRR = (best + 1) % len(e.credits)
		e.cur, e.queue, e.next, e.injVC, e.held[best] = e.queue[0], e.queue[1:], 0, best, true
	}
	if e.credits[e.injVC] == 0 || e.inj.sent != nil {
		return
	}
	fl := &flit.Flit{Packet: e.cur, Seq: e.next, Head: e.next == 0, Tail: e.next == e.cur.Size-1, VC: e.injVC}
	e.next++
	e.credits[e.injVC]--
	e.inj.sent = fl
	if fl.Head {
		e.cur.Inject = e.f.now
	}
	if fl.Tail {
		e.held[e.injVC], e.cur, e.injVC = false, nil, -1
	}
}
