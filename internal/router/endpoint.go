package router

import (
	"fmt"

	"nocsim/internal/alloc"
	"nocsim/internal/flit"
)

// Endpoint is the network interface of one node: an infinite source queue
// feeding the router's local input port at one flit per cycle, and an
// ejection unit draining the router's local output port at one flit per
// cycle — the endpoint bandwidth whose oversubscription creates the
// paper's endpoint congestion.
type Endpoint struct {
	node     int
	vcs      int
	bufDepth int

	injCh *Channel // endpoint -> router local input port
	ejCh  *Channel // router local output port -> endpoint

	// Injection side. The source queue is linked through its packets, so
	// a backlog of thousands of packets past saturation costs no memory
	// of the endpoint's and is never copied.
	queue     flit.Queue
	nextSeq   int // next flit of the packet currently being injected
	injVC     int // local input VC held by the current packet
	curPacket *flit.Packet
	credits   []uint8 // buffer credits per router local input VC
	vcBusy    uint32  // the local input VCs held by a packet being injected
	pickRR    int
	// Ejection side.
	ejBuf   [][]*flit.Flit
	ejMask  uint32 // the non-empty VCs of ejBuf
	consume alloc.RoundRobin

	// Sink is invoked when a packet's tail flit is consumed; the
	// simulator collects latency statistics here. May be nil.
	Sink func(p *flit.Packet)

	// packets receives the inject/eject lifecycle events; set with
	// SetPacketSink, nil when nobody listens.
	packets PacketSink

	// arena is the network's: it backs the flits the endpoint segments
	// packets into, and consumed flits and fully-ejected packets are
	// recycled into it. Packets it does not manage — heap packets from
	// arena-unaware injectors — are left alone.
	arena *flit.Arena

	// ConsumeInterval throttles the ejection bandwidth: the endpoint
	// consumes at most one flit every ConsumeInterval cycles. 1 (the
	// default) matches the router port bandwidth; larger values model
	// the slow endpoints of Section 2 ("if the bandwidth (ejection
	// rate) of the endpoint node is lower than the router port
	// bandwidth"), a second source of endpoint congestion besides
	// oversubscription.
	ConsumeInterval int
}

// init builds the endpoint in place, cutting its arrays from s.
func (e *Endpoint) init(node, vcs, bufDepth int, a *flit.Arena, s *slabs) {
	*e = Endpoint{
		node:     node,
		vcs:      vcs,
		bufDepth: bufDepth,
		arena:    a,
		injVC:    -1,
		credits:  s.u8.cut(vcs),
		ejBuf:    s.ejBufs.cut(vcs),
		consume:  alloc.MakeRoundRobin(vcs),
	}
	store := s.flits.cut(vcs * bufDepth) // credits bound each VC's backlog
	for v := range e.credits {
		e.credits[v] = uint8(bufDepth)
		e.ejBuf[v] = store[v*bufDepth : v*bufDepth : (v+1)*bufDepth]
	}
}

// Attach connects injCh as the channel to the router's local input port
// and ejCh as the one from its local output port.
func (e *Endpoint) Attach(injCh, ejCh *Channel) {
	e.injCh, e.ejCh = injCh, ejCh
	injCh.ep, ejCh.ep, ejCh.toNode = e, e, int32(e.node)
}

// SetPacketSink attaches the sink the endpoint reports packet injection
// and ejection through. Must be called before traffic flows.
func (e *Endpoint) SetPacketSink(s PacketSink) { e.packets = s }

// Offer appends a packet to the source queue. The packet's Born cycle must
// already be set by the traffic generator.
func (e *Endpoint) Offer(p *flit.Packet) {
	if p.Src != e.node {
		panic(fmt.Sprintf("router: packet src %d offered to endpoint %d", p.Src, e.node))
	}
	e.queue.Push(p)
}

// QueueLen returns the number of packets waiting in the source queue,
// including the packet currently being injected.
func (e *Endpoint) QueueLen() int {
	n := e.queue.Len()
	if e.curPacket != nil {
		n++
	}
	return n
}

// acceptCredits returns injection credits crs to their VCs: phase A,
// called by the injection channel's Deliver.
func (e *Endpoint) acceptCredits(crs []flit.Credit) {
	for _, cr := range crs {
		// Tested before the increment: a byte at MaxBufDepth would wrap.
		if int(e.credits[cr.VC]) >= e.bufDepth {
			panic(fmt.Sprintf("router: endpoint %d credit overflow vc %d", e.node, cr.VC))
		}
		e.credits[cr.VC]++
	}
}

// acceptFlit buffers ejected flit f for Consume: phase A, called by the
// ejection channel's Deliver.
func (e *Endpoint) acceptFlit(f *flit.Flit) {
	if len(e.ejBuf[f.VC]) >= e.bufDepth {
		panic(fmt.Sprintf("router: endpoint %d ejection overflow vc %d", e.node, f.VC))
	}
	e.ejBuf[f.VC] = append(e.ejBuf[f.VC], f)
	e.ejMask |= 1 << uint(f.VC)
}

// Quiescent reports that the endpoint holds no work at a cycle boundary:
// nothing queued for injection, no packet mid-injection, and no ejected
// flit awaiting consumption. A quiescent endpoint's cycle is a no-op
// (credit arrivals are signalled by the injection channel, which the
// network's worklist watches separately), so it may be skipped without
// changing any simulated result.
func (e *Endpoint) Quiescent() bool {
	return e.queue.Len() == 0 && e.curPacket == nil && e.ejMask == 0
}

// Consume drains at most one ejected flit (the endpoint's ejection
// bandwidth), returning its buffer credit to the router. now is the
// current cycle, recorded as the ejection time of completed packets.
// Phase D.
func (e *Endpoint) Consume(now int64) {
	if e.ejMask == 0 || e.ConsumeInterval > 1 && now%int64(e.ConsumeInterval) != 0 {
		return
	}
	v := e.consume.ArbitrateMask(e.ejMask)
	f := e.ejBuf[v][0]
	copy(e.ejBuf[v], e.ejBuf[v][1:])
	e.ejBuf[v] = e.ejBuf[v][:len(e.ejBuf[v])-1]
	if len(e.ejBuf[v]) == 0 {
		e.ejMask &^= 1 << uint(v)
	}
	e.ejCh.SendCredit(flit.Credit{VC: uint8(v), Tail: f.Tail})
	if f.Tail {
		p := f.Packet
		p.Eject = now
		if p.Dest != e.node {
			panic(fmt.Sprintf("router: packet %d for %d ejected at %d", p.ID, p.Dest, e.node))
		}
		if e.packets != nil {
			e.packets.OnEject(now, p)
		}
		if e.Sink != nil {
			e.Sink(p)
		}
		// The packet's pointer identity was needed through the Sink chain
		// (trace players key in-flight state by it); now the last observer
		// has run, the slot can be recycled.
		e.arena.FreePacket(p)
	}
	e.arena.FreeFlit(f)
}

// Inject sends at most one flit of the current packet into the router's
// local input port (the injection bandwidth). A new packet claims a free
// local input VC — the one with the most credits, round-robin on ties.
// Phase D.
func (e *Endpoint) Inject(now int64) {
	if e.curPacket == nil {
		if e.queue.Len() == 0 {
			return
		}
		v := e.pickVC()
		if v < 0 {
			return // all local input VCs held by in-flight packets
		}
		e.curPacket = e.queue.Pop()
		e.nextSeq = 0
		e.injVC = v
		e.vcBusy |= 1 << uint(v)
	}
	if e.credits[e.injVC] == 0 || !e.injCh.CanSend() {
		return
	}
	// Flits are materialized one per cycle as they enter the network —
	// there is never a fully segmented copy of the packet waiting.
	f := e.newFlit()
	f.VC = e.injVC
	e.credits[e.injVC]--
	e.injCh.Send(f)
	if f.Head {
		e.curPacket.Inject = now
		if e.packets != nil {
			e.packets.OnInject(now, e.curPacket)
		}
	}
	if f.Tail {
		e.vcBusy &^= 1 << uint(e.injVC)
		e.curPacket = nil
		e.injVC = -1
	}
}

// newFlit materializes the next flit of the packet under injection from
// the arena.
func (e *Endpoint) newFlit() *flit.Flit {
	f := e.arena.NewFlit()
	f.Packet = e.curPacket
	f.Seq = e.nextSeq
	f.Head = e.nextSeq == 0
	f.Tail = e.nextSeq == e.curPacket.Size-1
	e.nextSeq++
	return f
}

// pickVC selects a free local input VC for a new packet: unheld, with the
// most credits; round-robin among ties. Returns -1 when none is free.
func (e *Endpoint) pickVC() int {
	best, bestCr := -1, -1
	for i := 0; i < e.vcs; i++ {
		v := (e.pickRR + i) % e.vcs
		if e.vcBusy>>uint(v)&1 != 0 {
			continue
		}
		if int(e.credits[v]) > bestCr {
			best, bestCr = v, int(e.credits[v])
		}
	}
	if best >= 0 {
		e.pickRR = (best + 1) % e.vcs
	}
	return best
}
