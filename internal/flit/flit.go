// Package flit defines the units of data moved by the network: packets,
// the flits they are segmented into, and the credits returned by
// credit-based flow control.
package flit

import "fmt"

// Class labels a packet for measurement purposes. The simulator keeps
// separate latency statistics per class; Figure 9 of the paper plots only
// the Background class while Hotspot flows load the network.
type Class int

// Packet measurement classes.
const (
	// ClassBackground is ordinary measured traffic.
	ClassBackground Class = iota
	// ClassHotspot marks packets of the persistent hotspot flows of
	// Table 3; their latency is excluded from Figure 9's plots.
	ClassHotspot
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassBackground:
		return "background"
	case ClassHotspot:
		return "hotspot"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Packet is one message injected at a source endpoint and ejected at a
// destination endpoint. Packets are segmented into Size flits at injection.
type Packet struct {
	ID     uint64
	Src    int
	Dest   int
	Size   int // flits
	Class  Class
	Born   int64 // cycle the packet was created (offered to the source queue)
	Inject int64 // cycle the head flit entered the network
	Eject  int64 // cycle the tail flit left the network

	// Hops is incremented each time the head flit traverses a router.
	Hops int

	// arena is the arena that owns the packet's slot; nil for plain
	// heap-allocated packets, which Arena.FreePacket ignores.
	arena *Arena
}

// Latency returns the packet latency in cycles, measured from creation
// (including source queueing) to tail ejection, as BookSim reports it.
func (p *Packet) Latency() int64 { return p.Eject - p.Born }

// Flit is the flow-control unit. A packet of Size 1 has a single flit that
// is both head and tail.
type Flit struct {
	Packet *Packet
	Seq    int // position within the packet, 0-based
	Head   bool
	Tail   bool

	// VC is the virtual channel the flit occupies on its current channel;
	// it is rewritten hop by hop by the VC allocator.
	VC int

	// arena is the arena that owns the flit's slot; nil for heap-allocated
	// flits.
	arena *Arena
}

// Credit is the flow-control token returned upstream when a flit leaves an
// input buffer, freeing one slot of virtual channel VC.
type Credit struct {
	VC int
	// Tail reports that the freed slot held a tail flit; conservative
	// (Duato-style) VC reallocation waits for this credit before the
	// output VC can be re-assigned.
	Tail bool
}
