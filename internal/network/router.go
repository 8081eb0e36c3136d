package network

import (
	"fmt"
	"math/bits"

	"nocsim/internal/alloc"
	"nocsim/internal/flit"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// input VC state machine states.
const (
	vcIdle    uint8 = iota // no packet at the head of the buffer
	vcRouting              // head flit at front, awaiting an output VC
	vcActive               // output VC granted; streaming flits
)

// stageCap bounds the output stage; with speedup s the stage can grow by
// s-1 flits per cycle, so a small FIFO suffices.
const stageCap = 4

// Router is one mesh router, the package doc's Table 2 router. Its per-VC
// state is laid out as struct-of-arrays indexed by idx = int(port)*VCs +
// vc (the same dense index the VC allocator uses), so a cycle's scans
// walk contiguous arrays instead of chasing per-port/per-VC pointers. The
// arrays are cut from slabs shared by every node of the fabric, and the
// per-port ones are held inline. Each field is stored at the width its
// range needs: a port, a VC (below MaxVCs) or a flit count (at most
// MaxBufDepth) is a byte, and a per-VC flag is a bit of a per-port uint32
// mask. The input buffers and output stages are fixed-capacity rings and
// the scratch lists are sized at construction, so a warm cycle allocates
// nothing.
type Router struct {
	cfg Config // the fabric's
	vcs int    // cfg.VCs, hot-path copy

	// Input VC state machine, SoA over idx.
	inState   []uint8
	inOutDir  []uint8 // granted output port (active state), a topo.Direction
	inOutVC   []uint8 // granted output VC (active state)
	inBlocked []int32 // consecutive failed-allocation cycles
	// inDest is the destination of the head packet of a routing-state
	// input VC, so the per-cycle re-evaluation of a blocked head reads
	// one dense array instead of chasing flit and packet pointers.
	inDest []int32
	// inReqDir is the output port of the head packet's latest routing
	// decision, replaced at every re-evaluation; the decision itself
	// lives in the scratch only while allocateVCs runs.
	inReqDir []uint8

	// Input buffers: per-VC rings of capacity BufDepth over one backing
	// array; slot i of VC idx is bufStore[idx*BufDepth+(bufHead[idx]+i)%BufDepth].
	bufStore []*flit.Flit
	bufHead  []uint8
	bufLen   []uint8

	// Output VC flow-control credits, SoA over idx. The owner registers of
	// Section 4.4 live in st: st.Owner (the destination of the packets in
	// the downstream buffer, -1 when drained) and st.RegOwner (the last
	// destination granted the VC).
	outCredits []uint8

	// st is what routing decisions read of the output VC state, kept in
	// step at every transition: refreshOutBits maintains st.Idle, a grant
	// and a drain call st.SetOwner, and a grant writes st.RegOwner.
	// down[d] is the State of the neighbour behind output port d (nil at a
	// mesh edge and for the local port), which DownstreamIdle reads.
	st   routing.State
	down [topo.NumPorts]*routing.State

	// Output stages: per-port rings of capacity stageCap over one backing
	// array, absorbing the internal speedup.
	stageStore [topo.NumPorts * stageCap]*flit.Flit
	stageHead  [topo.NumPorts]uint8
	stageLen   [topo.NumPorts]uint8

	id int32 // the router's node

	inCh  [topo.NumPorts]*channel // attached input channels
	outCh [topo.NumPorts]*channel // attached output channels

	va    alloc.VCAllocator               // its round-robin pointers; calls work in sc.va
	saIn  [topo.NumPorts]alloc.RoundRobin // per input port: VC chooser
	saOut [topo.NumPorts]alloc.RoundRobin // per output port: input chooser
	sc    *vaScratch                      // allocateVCs' working memory, the fabric's

	// routeCtx is the reusable routing context: Decide receives a pointer
	// to it every call (only Dest and InDir vary), so route computation
	// never heap-allocates. Safe because Decide is pure (the routepurity
	// lint) and algorithms do not retain the context.
	routeCtx routing.Context

	// routingMask/activeMask track, per input port, which VCs are in the
	// routing/active state, so the per-cycle scans iterate only occupied
	// VCs (bit twiddling over the mask); routedMask is the subset of
	// routingMask whose head has been routed at least once. routingPorts,
	// activePorts and stagePorts have bit p set while routingMask[p],
	// activeMask[p] or stageLen[p] is non-zero, so the scans visit only
	// occupied ports; with the buffered-flit total they answer Quiescent
	// for the wake lists.
	routingMask  [topo.NumPorts]uint32
	activeMask   [topo.NumPorts]uint32
	routedMask   [topo.NumPorts]uint32
	routingPorts uint8
	activePorts  uint8
	stagePorts   uint8
	bufTotal     int

	// Per output port, the VCs held by a packet (outAlloc) and those
	// awaiting their tail credit under Duato-style conservative
	// reallocation (outAwaitTail). A VC in neither can be allocated
	// (free).
	outAlloc     [topo.NumPorts]uint32
	outAwaitTail [topo.NumPorts]uint32

	// outFlits counts flits sent per output port, for link-utilization
	// analysis.
	outFlits [topo.NumPorts]int64
	// creditStalls counts VC-cycles an active input VC headed for the
	// output port could not traverse because its output VC had no
	// downstream credits (one count per stalled VC per cycle).
	creditStalls [topo.NumPorts]int64
	// xbarGrants counts crossbar grants won by each output port.
	xbarGrants [topo.NumPorts]int64
	// vcAllocFails counts head packets that requested VCs and received no
	// grant, summed over cycles.
	vcAllocFails int64
}

// MaxVCs is the largest supported VC count per physical channel: the
// per-port VC state lives in uint32 bitmasks.
const MaxVCs = 32

// MaxBufDepth is the largest supported buffer depth per VC: buffer
// occupancy and output credits are bytes.
const MaxBufDepth = 255

func mustBeValid(cfg Config) {
	if cfg.VCs < 1 {
		panic("network: need at least one VC")
	}
	if cfg.VCs > MaxVCs {
		panic("network: at most 32 VCs supported (per-port idle bitmask)")
	}
	if cfg.Alg.UsesEscape() && cfg.VCs < 2 {
		panic("network: Duato-based routing needs at least two VCs")
	}
	if cfg.BufDepth < 1 || cfg.BufDepth > MaxBufDepth {
		panic("network: buffer depth must be 1..255 (per-VC byte counters)")
	}
	if cfg.Speedup < 1 {
		panic("network: need speedup >= 1")
	}
}

// init builds the router of node id in place, cutting its arrays from s;
// its allocateVCs calls work in sc.
func (r *Router) init(cfg Config, id int, s *slabs, sc *vaScratch) {
	n := topo.NumPorts * cfg.VCs
	regs, index := routing.StateLen(cfg.Mesh, cfg.VCs, cfg.Alg)
	*r = Router{
		cfg: cfg,
		vcs: cfg.VCs,
		id:  int32(id),
		st:  routing.NewStateOn(cfg.Mesh, id, cfg.VCs, cfg.Alg, s.i32.cut(regs), s.index.cut(index)),

		inState:   s.u8.cut(n),
		inOutDir:  s.u8.cut(n),
		inOutVC:   s.u8.cut(n),
		inBlocked: s.i32.cut(n),
		inDest:    s.i32.cut(n),
		inReqDir:  s.u8.cut(n),

		bufStore: s.flits.cut(n * cfg.BufDepth),
		bufHead:  s.u8.cut(n),
		bufLen:   s.u8.cut(n),

		outCredits: s.u8.cut(n),

		va: alloc.MakeVCAllocator(n, n, s.i32.cut(2*n), &sc.va),
		sc: sc,
	}
	for i := range r.outCredits {
		r.outCredits[i] = uint8(cfg.BufDepth)
	}
	for p := range r.saIn {
		r.saIn[p] = alloc.MakeRoundRobin(cfg.VCs)
		r.saOut[p] = alloc.MakeRoundRobin(topo.NumPorts)
	}
	r.routeCtx = routing.Context{
		Mesh: cfg.Mesh,
		Cur:  id,
		View: r,
		Rand: cfg.Rand,
	}
}

// attachIn connects ch as the input channel arriving at port d.
func (r *Router) attachIn(d topo.Direction, ch *channel) {
	r.inCh[d], ch.toR, ch.toPort, ch.toNode = ch, r, uint8(d), r.id
}

// attachOut connects ch as the output channel leaving port d.
func (r *Router) attachOut(d topo.Direction, ch *channel) {
	r.outCh[d], ch.fromR, ch.fromPort = ch, r, uint8(d)
}

// attachDownstream makes nb, the State of the router at the far end of
// output port d, what DownstreamIdle(d, …) reads.
func (r *Router) attachDownstream(d topo.Direction, nb *routing.State) { r.down[d] = nb }

// Quiescent reports that the router holds no work at a cycle boundary:
// no input VC is routing or active, no flit is buffered, and no flit
// waits in an output stage. A quiescent router's cycle is a no-op: all
// remaining state transitions are driven by channel arrivals, which wake
// it.
func (r *Router) Quiescent() bool {
	return r.routingPorts|r.activePorts|r.stagePorts == 0 && r.bufTotal == 0
}

// idx flattens (port, vc) into the dense SoA / VC-allocator index.
func (r *Router) idx(d topo.Direction, vc int) int { return int(d)*r.vcs + vc }

// outIdx returns the index of the output VC granted to active input VC i.
func (r *Router) outIdx(i int) int { return int(r.inOutDir[i])*r.vcs + int(r.inOutVC[i]) }

// free returns the VCs of output port d that can be allocated: neither
// held nor awaiting a tail credit.
func (r *Router) free(d topo.Direction) uint32 {
	return (uint32(1)<<uint(r.vcs) - 1) &^ (r.outAlloc[d] | r.outAwaitTail[d])
}

// refreshOutBits re-derives output VC idx's bit of st.Idle: set while the
// VC is free with an empty downstream buffer. Call after any mutation of
// outAlloc, outCredits or outAwaitTail.
func (r *Router) refreshOutBits(idx int) {
	p, bit := idx/r.vcs, uint32(1)<<uint(idx%r.vcs)
	if r.free(topo.Direction(p))&bit != 0 && int(r.outCredits[idx]) == r.cfg.BufDepth {
		r.st.Idle[p] |= bit
	} else {
		r.st.Idle[p] &^= bit
	}
}

// --- input buffer rings ----------------------------------------------------

// bufFront returns the front flit of input VC idx, or nil.
func (r *Router) bufFront(idx int) *flit.Flit {
	if r.bufLen[idx] == 0 {
		return nil
	}
	return r.bufStore[idx*r.cfg.BufDepth+int(r.bufHead[idx])]
}

// bufPush appends f to input VC idx, panicking on overflow (credits
// guarantee space).
func (r *Router) bufPush(idx int, f *flit.Flit) {
	depth := r.cfg.BufDepth
	if int(r.bufLen[idx]) >= depth {
		panic(fmt.Sprintf("router %d: input buffer overflow port %v vc %d",
			r.id, topo.Direction(idx/r.vcs), idx%r.vcs))
	}
	pos := (int(r.bufHead[idx]) + int(r.bufLen[idx])) % depth
	r.bufStore[idx*depth+pos] = f
	r.bufLen[idx]++
	r.bufTotal++
}

// bufPop removes and returns the front flit of input VC idx.
func (r *Router) bufPop(idx int) *flit.Flit {
	depth := r.cfg.BufDepth
	pos := idx*depth + int(r.bufHead[idx])
	f := r.bufStore[pos]
	r.bufStore[pos] = nil
	r.bufHead[idx] = uint8((int(r.bufHead[idx]) + 1) % depth)
	r.bufLen[idx]--
	r.bufTotal--
	return f
}

// --- output stage rings ----------------------------------------------------

// stagePush appends f to output port o's stage.
func (r *Router) stagePush(o int, f *flit.Flit) {
	if int(r.stageLen[o]) >= stageCap {
		panic(fmt.Sprintf("router %d: output stage overflow port %v", r.id, topo.Direction(o)))
	}
	pos := (int(r.stageHead[o]) + int(r.stageLen[o])) % stageCap
	r.stageStore[o*stageCap+pos] = f
	r.stageLen[o]++
	r.stagePorts |= 1 << uint(o)
}

// stagePop removes and returns the front flit of output port o's stage.
func (r *Router) stagePop(o int) *flit.Flit {
	pos := o*stageCap + int(r.stageHead[o])
	f := r.stageStore[pos]
	r.stageStore[pos] = nil
	r.stageHead[o] = uint8((int(r.stageHead[o]) + 1) % stageCap)
	if r.stageLen[o]--; r.stageLen[o] == 0 {
		r.stagePorts &^= 1 << uint(o)
	}
	return f
}

// --- routing.View ---------------------------------------------------------

// State implements routing.View.
func (r *Router) State() *routing.State { return &r.st }

// DownstreamIdle implements routing.View: a read of the neighbour's State.
func (r *Router) DownstreamIdle(d topo.Direction, dest int) int {
	nb := r.down[d]
	if nb == nil {
		return 0
	}
	return nb.IdleToward(dest)
}

// VCs returns the number of virtual channels per physical channel.
func (r *Router) VCs() int { return r.vcs }

// --- per-cycle phases ------------------------------------------------------

// acceptFlit buffers flit f arriving at input port p: phase A, called by
// the input channel's deliver.
func (r *Router) acceptFlit(p int, f *flit.Flit) {
	i := r.idx(topo.Direction(p), f.VC)
	r.bufPush(i, f)
	if f.Head {
		f.Packet.Hops++
	}
	// Promote an idle input VC straight to routing: a VC is idle only
	// while its buffer is empty, so this flit is the front and must be a
	// head.
	if r.inState[i] == vcIdle {
		if !f.Head {
			panic("network: non-head flit at front of idle VC")
		}
		r.startRouting(i, f)
	}
}

// acceptCredits returns the credits crs to the VCs of output port p:
// phase A, called by the output channel's deliver.
func (r *Router) acceptCredits(p int, crs []flit.Credit) {
	for _, cr := range crs {
		vc, bit := int(cr.VC), uint32(1)<<cr.VC
		i := r.idx(topo.Direction(p), vc)
		// Tested before the increment: a byte at MaxBufDepth would wrap.
		if int(r.outCredits[i]) >= r.cfg.BufDepth {
			panic(fmt.Sprintf("router %d: credit overflow port %v vc %d", r.id, topo.Direction(p), vc))
		}
		r.outCredits[i]++
		if cr.Tail {
			r.outAwaitTail[p] &^= bit
		}
		r.refreshOutBits(i)
		if r.st.Idle[p]&bit != 0 {
			// The owner register clears once the VC fully drains: a
			// footprint VC is one currently occupied by packets to its
			// owner destination.
			r.st.SetOwner(topo.Direction(p), vc, -1)
		}
	}
}

// startRouting moves input VC i to the routing state with head flit f at
// the front of its buffer.
func (r *Router) startRouting(i int, f *flit.Flit) {
	p, bit := i/r.vcs, uint32(1)<<uint(i%r.vcs)
	r.inState[i] = vcRouting
	r.inBlocked[i] = 0
	r.inDest[i] = int32(f.Packet.Dest)
	r.routedMask[p] &^= bit
	r.routingMask[p] |= bit
	r.routingPorts |= 1 << uint(p)
}

// allocateVCs runs route computation and VC allocation for every input VC
// in routing state at cycle now, in the fabric's shared scratch. Phase B+C.
func (r *Router) allocateVCs(now int64) {
	if r.routingPorts == 0 {
		return
	}
	sc := r.sc
	sc.heads, sc.reqs = sc.heads[:0], sc.reqs[:0]
	var seen [topo.NumPorts]uint32
	var dup uint32
	for ps := r.routingPorts; ps != 0; ps &= ps - 1 {
		// Iterate only the VCs in routing state, lowest port and VC first
		// (the same order the dense scan visited them in).
		p := bits.TrailingZeros8(ps)
		routed := r.routedMask[p]
		for m := r.routingMask[p]; m != 0; m &= m - 1 {
			requester := r.idx(topo.Direction(p), bits.TrailingZeros32(m))
			first := routed&(m&-m) == 0 // the head's first route computation here
			// The route (and its VC request set) is re-evaluated every cycle
			// while the packet waits, so adaptive decisions track the live
			// congestion state (DESIGN.md, "Mechanism analysis").
			dec := &sc.dec[requester]
			dest := int(r.inDest[requester])
			if r.cfg.Sinks.Packets != nil && first {
				r.cfg.Sinks.Packets.OnRoute(now, int(r.id), r.bufFront(requester).Packet, topo.Direction(p))
			}
			if dest == int(r.id) {
				// Ejection: request every local-port VC obliviously.
				*dec = routing.Decision{Dir: topo.Local}
				dec.Pri[alloc.Low] = uint32(1)<<uint(r.vcs) - 1
			} else {
				// Only Dest and InDir vary per call; the rest of the
				// context was bound at construction.
				r.routeCtx.Dest = dest
				r.routeCtx.InDir = topo.Direction(p)
				*dec = r.cfg.Alg.Decide(&r.routeCtx)
				if r.cfg.Sinks.Decisions != nil && first {
					r.emitDecision(now, dec, r.bufFront(requester).Packet)
				}
			}
			r.inReqDir[requester] = uint8(dec.Dir)
			// A blocked head (no requested VC free) is recorded nowhere; the
			// others are, and dup collects every VC a second head wants too.
			a, esc := dec.VCMask()&r.free(dec.Dir), uint32(0)
			if dec.HasEsc {
				esc = r.free(dec.Esc) & 1
			}
			if a|esc == 0 {
				continue
			}
			sc.heads = append(sc.heads, uint8(requester))
			dup |= seen[dec.Dir]&a | seen[dec.Esc]&esc
			seen[dec.Dir] |= a
			seen[dec.Esc] |= esc
		}
		r.routedMask[p] = r.routingMask[p] // every head of the port is routed now
	}

	// With no VC contested, each head's grant is its own best candidate
	// (DESIGN.md, "VC allocation in two forms"). Otherwise the heads expand
	// in list order (ascending VC, escape last): grant order, and with it
	// event order, follows the order Allocate first sees each resource in.
	for _, h := range sc.heads {
		q, dec, esc := int(h), &sc.dec[h], -1
		if dec.HasEsc && r.free(dec.Esc)&1 != 0 {
			esc = r.idx(dec.Esc, 0)
		}
		base, free := r.idx(dec.Dir, 0), r.free(dec.Dir)
		if dup == 0 {
			r.grant(now, q, r.va.GrantUncontended(q, base, &dec.Pri, free, esc))
			continue
		}
		for a := dec.VCMask() & free; a != 0; a &= a - 1 {
			vc := bits.TrailingZeros32(a)
			sc.reqs = append(sc.reqs, alloc.VCRequest{Requester: q, Resource: base + vc, Pri: dec.PriOf(vc)})
		}
		if esc >= 0 {
			sc.reqs = append(sc.reqs, alloc.VCRequest{Requester: q, Resource: esc, Pri: alloc.Lowest})
		}
	}
	for _, g := range r.va.Allocate(sc.reqs) { // nothing, in mask form
		r.grant(now, g.Requester, g.Resource)
	}

	// Blocking bookkeeping: every head packet that tried and failed. The
	// grant loop above removed granted VCs from the routing masks, so the
	// remaining bits are exactly the failures.
	for ps := r.routingPorts; ps != 0; ps &= ps - 1 {
		p := bits.TrailingZeros8(ps)
		for m := r.routingMask[p]; m != 0; m &= m - 1 {
			requester := r.idx(topo.Direction(p), bits.TrailingZeros32(m))
			r.inBlocked[requester]++
			r.vcAllocFails++
			if r.cfg.Sinks.Blocked != nil {
				out := topo.Direction(r.inReqDir[requester])
				fp, busy := r.portOccupancy(out, int(r.inDest[requester]))
				// The packet goes out with the first failure of a span only,
				// so a head that stays blocked costs no flit or packet load.
				var pkt *flit.Packet
				if r.inBlocked[requester] == 1 {
					pkt = r.bufFront(requester).Packet
				}
				r.cfg.Sinks.Blocked.OnVCAllocFailure(now, int(r.id), pkt,
					out, fp, busy, int64(r.inBlocked[requester]))
			}
		}
	}
}

// grant hands output VC res to the head packet of input VC q at cycle now.
func (r *Router) grant(now int64, q, res int) {
	od, ovc := topo.Direction(res/r.vcs), res%r.vcs
	r.inState[q] = vcActive
	r.inOutDir[q] = uint8(od)
	r.inOutVC[q] = uint8(ovc)
	p, inBit := q/r.vcs, uint32(1)<<uint(q%r.vcs)
	if r.routingMask[p] &^= inBit; r.routingMask[p] == 0 {
		r.routingPorts &^= 1 << uint(p)
	}
	r.activeMask[p] |= inBit
	r.activePorts |= 1 << uint(p)
	dest := int(r.inDest[q])
	if r.cfg.Sinks.Packets != nil {
		// Reported before the assignments below so the VC is classified
		// against its pre-grant state: once marked allocated and owned
		// it would read as busy.
		r.cfg.Sinks.Packets.OnVCAllocGrant(now, int(r.id), r.bufFront(q).Packet,
			od, ovc, r.classifyVC(od, ovc, dest), int64(r.inBlocked[q]))
	}
	r.outAlloc[od] |= uint32(1) << uint(ovc)
	r.refreshOutBits(res)
	r.st.SetOwner(od, ovc, dest)
	r.st.RegOwner[res] = int32(dest)
}

// portOccupancy counts footprint and busy adaptive VCs of port d with
// respect to dest. An owned VC is never idle, so the footprint VCs are a
// subset of the busy ones.
func (r *Router) portOccupancy(d topo.Direction, dest int) (fp, busy int) {
	lo := r.st.Lo
	return bits.OnesCount32(r.st.OwnerMask(d, dest) >> uint(lo)), r.vcs - lo - r.st.IdleCount(d, lo)
}

// switchAndTraverse performs switch allocation and switch traversal for
// Speedup iterations at cycle now, then drains one flit per output port
// onto its channel. Phase D+E.
func (r *Router) switchAndTraverse(now int64) {
	if r.activePorts|r.stagePorts == 0 {
		return
	}
	for iter := 0; iter < r.cfg.Speedup; iter++ {
		// Input stage: each input port nominates one ready VC into want[o],
		// the mask of input ports asking for the nominee's output port o,
		// and wantPorts collects the output ports asked for.
		var nom [topo.NumPorts]int
		var want [topo.NumPorts]uint32
		var wantPorts uint8
		for ps := r.activePorts; ps != 0; ps &= ps - 1 {
			p := bits.TrailingZeros8(ps)
			var ready uint32
			for m := r.activeMask[p]; m != 0; m &= m - 1 {
				v := bits.TrailingZeros32(m)
				if r.vcReady(p, v) {
					ready |= 1 << uint(v)
				} else if iter == 0 {
					// Diagnose the stall once per cycle: an active VC
					// with buffered flits whose output VC is out of
					// credits is backpressure from downstream.
					i := r.idx(topo.Direction(p), v)
					if r.bufLen[i] > 0 && r.outCredits[r.outIdx(i)] == 0 {
						r.creditStalls[r.inOutDir[i]]++
					}
				}
			}
			if ready == 0 {
				continue // arbitrating an empty mask is a no-op
			}
			nom[p] = r.saIn[p].ArbitrateMask(ready)
			o := r.inOutDir[r.idx(topo.Direction(p), nom[p])]
			want[o] |= 1 << uint(p)
			wantPorts |= 1 << uint(o)
		}
		if wantPorts == 0 {
			// Nothing was ready, so this and every remaining speedup
			// iteration would be an identical no-op.
			break
		}
		// Output stage: each requested output port grants one input port.
		for m := wantPorts; m != 0; m &= m - 1 {
			o := bits.TrailingZeros8(m)
			in := r.saOut[o].ArbitrateMask(want[o])
			r.traverse(now, in, nom[in])
		}
	}
	// Link traversal: one flit per output channel per cycle.
	for m := r.stagePorts; m != 0; m &= m - 1 {
		o := bits.TrailingZeros8(m)
		ch := r.outCh[o]
		if !ch.canSend() {
			continue
		}
		ch.send(r.stagePop(o))
		r.outFlits[o]++
	}
}

// OutputFlits returns the number of flits the router has sent through
// output port d since construction, for utilization analysis.
func (r *Router) OutputFlits(d topo.Direction) int64 { return r.outFlits[d] }

// CreditStalls returns the cumulative VC-cycles in which an active input
// VC headed for output port d could not traverse the switch because its
// output VC had no downstream credits.
func (r *Router) CreditStalls(d topo.Direction) int64 { return r.creditStalls[d] }

// CrossbarGrants returns the cumulative crossbar grants won by output
// port d (one per flit crossing the switch, including speedup passes).
func (r *Router) CrossbarGrants(d topo.Direction) int64 { return r.xbarGrants[d] }

// VCAllocFailures returns the cumulative count of head packets that
// requested output VCs and received no grant, summed over cycles.
func (r *Router) VCAllocFailures() int64 { return r.vcAllocFails }

// vcReady reports whether input VC (p, v) can traverse the switch now.
func (r *Router) vcReady(p, v int) bool {
	i := r.idx(topo.Direction(p), v)
	if r.inState[i] != vcActive || r.bufLen[i] == 0 {
		return false
	}
	return r.outCredits[r.outIdx(i)] > 0 && int(r.stageLen[r.inOutDir[i]]) < stageCap
}

// traverse moves the front flit of input VC (p, v) into its output stage
// at cycle now, returning a credit upstream and managing wormhole state.
func (r *Router) traverse(now int64, p, v int) {
	i := r.idx(topo.Direction(p), v)
	f := r.bufPop(i)
	od, ovc, res := topo.Direction(r.inOutDir[i]), int(r.inOutVC[i]), r.outIdx(i)
	f.VC = ovc
	r.outCredits[res]--
	r.refreshOutBits(res)
	r.stagePush(int(od), f)
	r.xbarGrants[od]++
	if r.cfg.Sinks.Packets != nil && f.Head {
		r.cfg.Sinks.Packets.OnHeadTraverse(now, int(r.id), f.Packet, od, ovc)
	}

	// Return a credit for the freed input buffer slot.
	r.inCh[p].sendCredit(flit.Credit{VC: uint8(v), Tail: f.Tail})

	if f.Tail {
		bit := uint32(1) << uint(ovc)
		r.outAlloc[od] &^= bit
		// Duato's condition: with an escape VC, reallocate only once the
		// tail's credit has returned.
		if r.st.Lo == 1 {
			r.outAwaitTail[od] |= bit
		}
		r.refreshOutBits(res)
		// Next packet (if already buffered) starts routing next cycle.
		if r.activeMask[p] &^= uint32(1) << uint(v); r.activeMask[p] == 0 {
			r.activePorts &^= 1 << uint(p)
		}
		r.inState[i] = vcIdle
		if nf := r.bufFront(i); nf != nil {
			if !nf.Head {
				panic("network: flit interleaving detected")
			}
			r.startRouting(i, nf)
		}
	}
}
