package router

import (
	"nocsim/internal/topo"
)

// Input VC states as exported by InputVCSnapshot. These mirror the
// internal vcIdle/vcRouting/vcActive state machine.
const (
	VCStateIdle    = "idle"
	VCStateRouting = "routing"
	VCStateActive  = "active"
)

// InVCState is the externally visible state of one input virtual channel,
// captured for fabric snapshots and stall post-mortems.
type InVCState struct {
	// State is one of VCStateIdle, VCStateRouting, VCStateActive.
	State string
	// Buffered is the number of flits in the VC's buffer.
	Buffered int
	// PacketID and PacketDest describe the packet at the front of the
	// buffer (PacketDest is -1 when the buffer is empty).
	PacketID   uint64
	PacketDest int
	// Blocked is the number of consecutive cycles the head packet has
	// failed VC allocation (routing state only).
	Blocked int64
	// OutDir and OutVC are the granted output VC (active state only).
	OutDir topo.Direction
	OutVC  int
	// ReqDir is the output port the head packet's adaptive requests
	// targeted most recently; meaningful only when Routed is true
	// (routing state, after route computation).
	ReqDir topo.Direction
	Routed bool
}

// InputVCSnapshot exports the live state of input VC (d, v).
func (r *Router) InputVCSnapshot(d topo.Direction, v int) InVCState {
	i := r.idx(d, v)
	st := InVCState{
		Buffered:   int(r.bufLen[i]),
		PacketDest: -1,
	}
	switch r.inState[i] {
	case vcIdle:
		st.State = VCStateIdle
	case vcRouting:
		st.State = VCStateRouting
		st.Blocked = int64(r.inBlocked[i])
		st.Routed = r.routedMask[d]>>uint(v)&1 != 0
		if st.Routed {
			st.ReqDir = topo.Direction(r.inReqDir[i])
		}
	case vcActive:
		st.State = VCStateActive
		st.OutDir = topo.Direction(r.inOutDir[i])
		st.OutVC = int(r.inOutVC[i])
	}
	if f := r.bufFront(i); f != nil {
		st.PacketID = f.Packet.ID
		st.PacketDest = f.Packet.Dest
	}
	return st
}

// OutVCState is the externally visible state of one output virtual
// channel: allocation, flow control and footprint registers.
type OutVCState struct {
	Allocated bool
	Credits   int
	// Owner is the live footprint owner (destination of the packets in
	// the downstream buffer, -1 when drained); RegOwner is the persistent
	// footprint register of Section 4.4.
	Owner    int
	RegOwner int
	// AwaitTailCredit marks a VC blocked from reallocation until its tail
	// credit returns (Duato-style conservative reallocation).
	AwaitTailCredit bool
}

// OutputVCSnapshot exports the live state of output VC (d, v).
func (r *Router) OutputVCSnapshot(d topo.Direction, v int) OutVCState {
	i := r.idx(d, v)
	return OutVCState{
		Allocated:       r.outAlloc[d]>>uint(v)&1 != 0,
		Credits:         int(r.outCredits[i]),
		Owner:           int(r.st.Owner[i]),
		RegOwner:        int(r.st.RegOwner[i]),
		AwaitTailCredit: r.outAwaitTail[d]>>uint(v)&1 != 0,
	}
}

// EjectionBacklog returns the number of flits buffered in the endpoint's
// ejection unit for VC v — the terminal link of an endpoint-congestion
// blocking chain.
func (e *Endpoint) EjectionBacklog(v int) int { return len(e.ejBuf[v]) }
